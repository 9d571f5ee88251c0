"""Seed-deterministic fault plans with named injection points.

A :class:`FaultPlan` describes *which* faults to inject and *where*:

========================  ====================================================
injection point           fires in
========================  ====================================================
``evaluator_error``       :class:`repro.faults.FaultyEvaluator` — raises a
                          transient error for a seeded subset of points
``evaluator_hang``        :class:`repro.faults.FaultyEvaluator` — one-shot
                          sleep inside an evaluation (stalls the heartbeat)
``torn_write``            ``JsonlAppender.append`` — one-shot half-written
                          record followed by a crash
``fsync_error``           ``JsonlAppender``/``EventLog`` fsync — one-shot
                          ``OSError`` out of the durability barrier
``kill``                  shard runner — ``SIGKILL`` the process after N
                          durable appends
``claim_delay``           steal claim races — widens the O_EXCL window
========================  ====================================================

Everything is derived from ``seed`` and stable point identity, so a chaos
run is reproducible.  One-shot faults claim an ``O_CREAT | O_EXCL`` marker
file under the plan's *scope* directory (the result-store root), so a
relaunched shard does not re-fire a fault its predecessor already spent;
scope-less plans fall back to per-process one-shot state.

The module is stdlib-only and — like :mod:`repro.obs` — a true no-op until
a plan is activated: disabled hot paths pay one module-global ``None``
check.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from contextlib import contextmanager
from pathlib import Path

from .errors import FaultInjectedError, FaultPlanError

__all__ = ["FaultPlan", "activate", "active_plan", "plan_from_spec"]

# (field, default, validator description) — the wire allowlist.
_PLAN_FIELDS = (
    ("seed", 0),
    ("evaluator_error_rate", 0.0),
    ("evaluator_error_attempts", 1),
    ("evaluator_hang_s", 0.0),
    ("torn_write", False),
    ("fsync_error", False),
    ("kill_after_records", None),
    ("claim_delay_s", 0.0),
)
_PLAN_KEYS = frozenset(name for name, _ in _PLAN_FIELDS)


class FaultPlan:
    """A validated, seeded set of faults to inject (see module docstring)."""

    def __init__(
        self,
        *,
        seed=0,
        evaluator_error_rate=0.0,
        evaluator_error_attempts=1,
        evaluator_hang_s=0.0,
        torn_write=False,
        fsync_error=False,
        kill_after_records=None,
        claim_delay_s=0.0,
        scope=None,
    ):
        self.seed = _require_int(seed, "seed", minimum=None)
        self.evaluator_error_rate = _require_rate(
            evaluator_error_rate, "evaluator_error_rate"
        )
        self.evaluator_error_attempts = _require_int(
            evaluator_error_attempts, "evaluator_error_attempts", minimum=1
        )
        self.evaluator_hang_s = _require_seconds(evaluator_hang_s, "evaluator_hang_s")
        self.torn_write = _require_bool(torn_write, "torn_write")
        self.fsync_error = _require_bool(fsync_error, "fsync_error")
        if kill_after_records is not None:
            kill_after_records = _require_int(
                kill_after_records, "kill_after_records", minimum=1
            )
        self.kill_after_records = kill_after_records
        self.claim_delay_s = _require_seconds(claim_delay_s, "claim_delay_s")
        self.scope = Path(scope) if scope is not None else None
        self._attempts = {}  # point key -> injected evaluator errors so far
        self._fired = set()  # scope-less one-shot points fired in-process
        self._appended = 0  # durable appends seen by this process

    def __repr__(self):
        parts = ", ".join(f"{k}={v!r}" for k, v in sorted(self.spec().items()))
        return f"FaultPlan({parts})"

    # -- wire format -------------------------------------------------------

    def spec(self):
        """The canonical JSON-safe dict (non-default fields only).

        ``scope`` is a runtime binding, never serialized: the same plan
        rides the manifest for every shard, and each runner re-scopes it
        to the store it attaches to.
        """
        out = {}
        for name, default in _PLAN_FIELDS:
            value = getattr(self, name)
            if value != default:
                out[name] = value
        return out

    def scoped(self, scope):
        """A copy of this plan bound to ``scope`` for one-shot markers."""
        kwargs = {name: getattr(self, name) for name, _ in _PLAN_FIELDS}
        return FaultPlan(scope=scope, **kwargs)

    # -- injection points --------------------------------------------------

    def evaluator_fault(self, key):
        """Called by ``FaultyEvaluator`` before each real evaluation.

        May sleep (one-shot hang) and may raise :class:`FaultInjectedError`
        (seeded transient error, at most ``evaluator_error_attempts`` times
        per point per process).
        """
        if self.evaluator_hang_s > 0 and self._fire_once("evaluator_hang"):
            self._count("evaluator_hang")
            time.sleep(self.evaluator_hang_s)
        if self._selected("evaluator_error", key, self.evaluator_error_rate):
            n = self._attempts.get(key, 0) + 1
            self._attempts[key] = n
            if n <= self.evaluator_error_attempts:
                self._count("evaluator_error")
                raise FaultInjectedError(
                    f"injected transient evaluator error (attempt {n})"
                )

    def torn_write_fault(self, path):
        """True exactly once when a record append should tear mid-line."""
        if not self.torn_write or not self._in_scope(path):
            return False
        if not self._fire_once("torn_write"):
            return False
        self._count("torn_write")
        return True

    def fsync_fault(self, path):
        """Raise ``OSError`` out of one durability barrier (one-shot)."""
        if self.fsync_error and self._in_scope(path) and self._fire_once("fsync_error"):
            self._count("fsync_error")
            raise OSError(f"injected fsync failure for {path}")

    def note_append(self):
        """SIGKILL this process once ``kill_after_records`` appends land."""
        if self.kill_after_records is None:
            return
        self._appended += 1
        if self._appended >= self.kill_after_records and self._fire_once("kill"):
            self._count("kill")
            os.kill(os.getpid(), signal.SIGKILL)

    def claim_fault(self):
        """Widen the steal-claim race window by ``claim_delay_s``."""
        if self.claim_delay_s > 0:
            self._count("claim_delay")
            time.sleep(self.claim_delay_s)

    # -- mechanics ---------------------------------------------------------

    def _selected(self, point, key, rate):
        """Seed-deterministic membership of ``key`` in a ``rate`` subset."""
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        digest = hashlib.sha256(f"{self.seed}|{point}|{key}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64 < rate

    def _fire_once(self, point):
        """Claim the one-shot marker for ``point``; True on first claim.

        With a scope the marker is a durable ``O_EXCL`` file, shared by
        every process (including relaunches) working the same store.
        """
        if self.scope is None:
            if point in self._fired:
                return False
            self._fired.add(point)
            return True
        markers = self.scope / "fault-markers"
        markers.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(
                markers / f"{point}.fired", os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def _in_scope(self, path):
        if self.scope is None:
            return True
        try:
            return Path(path).resolve().is_relative_to(self.scope.resolve())
        except OSError:
            return False

    def _count(self, point):
        # Lazy import: this module must stay an import leaf so obs/dist can
        # import it at module level, and counting only happens when a fault
        # actually fires.
        from .. import obs

        obs.counter(
            "faults_injected",
            help="Faults fired by the active fault plan.",
            point=point,
        ).inc()


def plan_from_spec(spec):
    """Validate a wire-format fault plan (a JSON object) into a FaultPlan."""
    if isinstance(spec, FaultPlan):
        return spec
    if not isinstance(spec, dict):
        raise FaultPlanError(
            f"fault plan must be a JSON object, got {type(spec).__name__}"
        )
    unknown = sorted(set(spec) - _PLAN_KEYS)
    if unknown:
        known = ", ".join(sorted(_PLAN_KEYS))
        raise FaultPlanError(
            f"unknown fault plan key(s) {unknown}; known keys: {known}"
        )
    try:
        return FaultPlan(**spec)
    except FaultPlanError:
        raise
    except (TypeError, ValueError) as exc:
        raise FaultPlanError(str(exc)) from None


# -- validation helpers ----------------------------------------------------


def _require_int(value, name, *, minimum):
    if isinstance(value, bool) or not isinstance(value, int):
        raise FaultPlanError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise FaultPlanError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def _require_rate(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FaultPlanError(f"{name} must be a number in [0, 1], got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{name} must be within [0, 1], got {value!r}")
    return float(value)


def _require_seconds(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FaultPlanError(f"{name} must be a non-negative number, got {value!r}")
    if value < 0:
        raise FaultPlanError(f"{name} must be non-negative, got {value!r}")
    return float(value)


def _require_bool(value, name):
    if not isinstance(value, bool):
        raise FaultPlanError(f"{name} must be a boolean, got {value!r}")
    return value


# -- activation ------------------------------------------------------------

# The single active plan, consulted by deep write-path hooks (store/event
# appends) that have no way to receive a plan argument.  ``None`` means
# every hook is a no-op; runners activate a scoped plan for the duration
# of a faulty study.
_ACTIVE = None


def active_plan():
    """The currently activated plan, or None (the common, no-op case)."""
    return _ACTIVE


@contextmanager
def activate(plan):
    """Make ``plan`` visible to write-path hooks for the duration."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous
