"""Job lifecycle for the DSE service: durable submissions, shard workers.

A *job* is one DSE study submitted over the wire.  Its identity is the
content fingerprint of its result-store manifest (:mod:`.cache`), and its
durable form is one directory:

.. code-block:: text

    data_dir/jobs/<job_id>/
      job.json      # the normalised request (exclusive-created, atomic)
      store/        # a repro.dist ResultStore: the shards' ledger
      events.jsonl  # append-only lifecycle timeline (repro.obs.events)
      result.json   # rendered results, present iff the job is done
      error.json    # present iff the job failed structurally

Everything that matters survives a server kill: ``job.json`` says what to
run, the store's completion records say what already ran, and
``result.json`` says it finished.  :meth:`JobManager.resume` re-enqueues
every job directory without a result on startup, and the shards resume
from their records (:func:`repro.dist.run_shard` skips recorded indices)
— a restarted server picks up mid-grid, not from scratch.

Execution is a small in-process worker pool over a queue of *(job,
shard)* tasks: each job runs as ``n_shards`` :mod:`repro.dist` shards
against its own store (several jobs' shards interleave across workers),
and whichever worker completes a job's last shard merges the store
(:func:`repro.dist.merge_store` — bit-identical to ``dse-merge`` and the
single-process sweep) and publishes the rendered document to the result
cache.  Evaluator failures on individual grid points are completion
records like everywhere else in the dist layer; only structural errors
(an invalid sweep, a crashed merge) fail the job, durably, until an
identical re-submission retries it.
"""

from __future__ import annotations

import json
import os
import queue
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .. import obs
from ..dist.merge import merge_store, store_status
from ..obs.events import EventLog
from ..dist.runner import (
    model_workload_spec,
    run_shard,
    workload_fingerprint,
    workload_from_spec,
)
from ..dist.store import (
    ResultStore,
    StoreError,
    build_manifest,
    config_from_dict,
    config_to_dict,
    decode_record,
)
from ..harness.dse import PointFailure, grid_size
from ..harness.serialization import dse_result_payload, to_json
from ..hw.params import VITCOD_DEFAULT
from ..sim.evaluator import (
    dse_parameter_names,
    evaluator_from_spec,
    evaluator_spec,
)
from .cache import ResultCache, study_fingerprint

__all__ = [
    "JOB_SCHEMA",
    "ServeRequestError",
    "ServeOverloadError",
    "UnknownJobError",
    "JobFailedError",
    "JobState",
    "JobManager",
]

#: ``job.json`` schema tag; bump on incompatible layout changes.
JOB_SCHEMA = "repro-serve/1"

JOB_NAME = "job.json"
ERROR_NAME = "error.json"
EVENTS_NAME = "events.jsonl"

_STOP = object()

_log = obs.get_logger("serve.jobs")

_REQUEST_FIELDS = frozenset(
    {
        "grid",
        "evaluator",
        "base_config",
        "workload_spec",
        "model",
        "sparsity",
        "n_shards",
        "handicap",
    }
)
_WORKLOAD_SPEC_FIELDS = frozenset(
    {"kind", "model", "sparsity", "theta_d", "seed", "index_format", "reordered"}
)


class ServeRequestError(ValueError):
    """A malformed job submission (the HTTP layer maps this to 400)."""


class ServeOverloadError(RuntimeError):
    """The task queue is full; come back later (maps to 503 + Retry-After).

    Backpressure, not failure: nothing was written to disk, and an
    identical re-submission after ``retry_after`` seconds lands normally.
    """

    def __init__(self, pending, limit, retry_after):
        super().__init__(
            f"task queue is full ({pending} tasks pending, limit "
            f"{limit}); retry in {retry_after:.0f}s"
        )
        self.pending = int(pending)
        self.limit = int(limit)
        self.retry_after = float(retry_after)


class UnknownJobError(KeyError):
    """A job id this server's data dir has never seen (maps to 404)."""


class JobFailedError(RuntimeError):
    """Results were requested for a structurally failed job (maps to 409)."""


@dataclass
class JobState:
    """In-memory view of one job (the durable truth lives in its dir)."""

    job_id: str
    request: dict  # the job.json record
    root: Path
    state: str  # queued | running | merging | done | failed
    error: str = None
    remaining: set = field(default_factory=set)  # shard indices still owed
    attempts: dict = field(default_factory=dict)  # shard index -> failures

    @property
    def store_root(self) -> Path:
        return self.root / "store"

    @property
    def n_shards(self) -> int:
        return int(self.request["n_shards"])


def _check_number(value, name, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServeRequestError(f"{name} must be a number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ServeRequestError(f"{name} must be >= {minimum}, got {value!r}")
    return value


class JobManager:
    """Submission, execution and observation of jobs in one data dir.

    ``workers`` threads drain the shard-task queue (``0`` starts none —
    tests then drive execution deterministically with :meth:`run_next`).
    ``max_grid_points`` / ``max_shards`` bound what one request may ask
    of the server; both are validation limits, not scheduling hints.

    Robustness knobs: ``max_pending`` bounds the task queue (submissions
    that would overflow it raise :class:`ServeOverloadError` → 503);
    ``task_retries`` is the per-shard-task retry budget before a crash
    or timeout fails the whole job; ``task_timeout`` puts each shard
    task under a watchdog (``None`` disables it).
    """

    def __init__(
        self,
        data_dir,
        workers=2,
        max_grid_points=65536,
        max_shards=16,
        max_pending=1024,
        task_retries=2,
        task_timeout=None,
    ):
        self.data_dir = Path(data_dir)
        self.jobs_root = self.data_dir / "jobs"
        self.jobs_root.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(self.jobs_root)
        self.max_grid_points = int(max_grid_points)
        self.max_shards = int(max_shards)
        self.max_pending = int(max_pending)
        self.task_retries = int(task_retries)
        self.task_timeout = None if task_timeout is None else float(task_timeout)
        self.workers = int(workers)
        self.stats = {
            "submitted": 0,
            "cache_hits": 0,
            "deduplicated": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "shards_run": 0,
            "task_retries": 0,
            "task_timeouts": 0,
            "overload_rejections": 0,
        }
        self._jobs = {}
        self._lock = threading.RLock()
        self._events_lock = threading.Lock()
        self._queue = queue.Queue()
        self._threads = []
        for index in range(int(workers)):
            thread = threading.Thread(
                target=self._worker, name=f"serve-worker-{index + 1}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------
    def _bump(self, key):
        """Increment a stats counter and its telemetry mirror."""
        self.stats[key] += 1
        obs.counter(f"serve_{key}").inc()

    def _event(self, root, kind, **fields):
        """Append one record to a job's durable ``events.jsonl`` timeline."""
        record = {"t": time.time(), "event": kind, **fields}
        with self._events_lock:
            EventLog(Path(root) / EVENTS_NAME).append(record)

    def _note_transition(self, job, state, **fields):
        """Count a lifecycle transition and append it to the timeline."""
        obs.counter(
            "serve_job_transitions",
            help="Job lifecycle transitions by target state.",
            state=state,
        ).inc()
        self._event(job.root, state, **fields)

    # ------------------------------------------------------------------
    # Request validation
    # ------------------------------------------------------------------
    def _normalize_grid(self, grid) -> dict:
        if not isinstance(grid, dict) or not grid:
            raise ServeRequestError(
                "'grid' must be a non-empty object mapping parameter "
                "names to value lists"
            )
        known = dse_parameter_names()
        normalized = {}
        for name, values in grid.items():
            if name not in known:
                raise ServeRequestError(
                    f"unknown grid parameter {name!r}; choose from {list(known)}"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise ServeRequestError(
                    f"grid parameter {name!r} needs a non-empty list of values"
                )
            for value in values:
                if value is not None:
                    _check_number(value, f"grid parameter {name!r} value")
            normalized[name] = list(values)
        size = grid_size(normalized)
        if size > self.max_grid_points:
            raise ServeRequestError(
                f"grid has {size} points, above this server's limit of "
                f"{self.max_grid_points}"
            )
        return normalized

    def _normalize_workload_spec(self, request) -> dict:
        spec = request.get("workload_spec")
        if spec is not None:
            if "model" in request or "sparsity" in request:
                raise ServeRequestError(
                    "pass either 'workload_spec' or the 'model'/'sparsity' "
                    "shorthand, not both"
                )
            if not isinstance(spec, dict) or spec.get("kind") != "model":
                raise ServeRequestError(
                    "'workload_spec' must be an object with kind='model' "
                    "(opaque workloads cannot cross the wire)"
                )
            unknown = sorted(set(spec) - _WORKLOAD_SPEC_FIELDS)
            if unknown:
                raise ServeRequestError(f"unknown workload_spec field(s) {unknown}")
            model = spec.get("model")
        else:
            spec = {}
            model = request.get("model", "deit-tiny")
        if not isinstance(model, str) or not model:
            raise ServeRequestError(f"'model' must be a model name, got {model!r}")
        sparsity = _check_number(
            spec.get("sparsity", request.get("sparsity", 0.9)), "'sparsity'"
        )
        # Canonicalise to the full recipe so two spellings of the same
        # study (defaults implicit vs explicit) share one fingerprint.
        return model_workload_spec(
            model,
            sparsity=sparsity,
            theta_d=spec.get("theta_d", 0.25),
            seed=spec.get("seed", 0),
            index_format=spec.get("index_format", "csc"),
            reordered=spec.get("reordered", True),
        )

    def _normalize(self, request) -> dict:
        if not isinstance(request, dict):
            raise ServeRequestError("request body must be a JSON object")
        unknown = sorted(set(request) - _REQUEST_FIELDS)
        if unknown:
            raise ServeRequestError(
                f"unknown request field(s) {unknown}; expected "
                f"{sorted(_REQUEST_FIELDS)}"
            )
        grid = self._normalize_grid(request.get("grid"))
        try:
            evaluator = evaluator_from_spec(request.get("evaluator", "analytical"))
        except (TypeError, ValueError) as exc:
            raise ServeRequestError(str(exc)) from None
        evaluator_wire = evaluator_spec(evaluator)
        fault_plan = evaluator_wire.get("faults") or {}
        if fault_plan.get("kill_after_records") is not None:
            raise ServeRequestError(
                "fault plans with 'kill_after_records' cannot run served: "
                "shards execute in-process, so the injected SIGKILL would "
                "take the whole server down; use dse-fleet for kill storms"
            )
        base_config = request.get("base_config")
        if base_config is None:
            config = VITCOD_DEFAULT
        else:
            try:
                config = config_from_dict(base_config)
            except (KeyError, TypeError, ValueError) as exc:
                raise ServeRequestError(f"bad 'base_config': {exc}") from None
        n_shards = request.get("n_shards", 1)
        if isinstance(n_shards, bool) or not isinstance(n_shards, int):
            raise ServeRequestError(f"'n_shards' must be an integer, got {n_shards!r}")
        if not 1 <= n_shards <= self.max_shards:
            raise ServeRequestError(
                f"'n_shards' must be in 1..{self.max_shards}, got {n_shards}"
            )
        handicap = _check_number(request.get("handicap", 0.0), "'handicap'", 0.0)
        return {
            "grid": grid,
            "evaluator": evaluator_wire,
            "base_config": config_to_dict(config),
            "workload_spec": self._normalize_workload_spec(request),
            "n_shards": n_shards,
            "handicap": float(handicap),
        }

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request) -> dict:
        """Accept a study: create, deduplicate, or serve it from cache.

        Returns the submission info dict the POST handler renders:
        ``id``, ``state``, ``cache_hit`` (the study already finished —
        nothing was or will be re-scored), ``created`` (this call made a
        new job rather than landing on an existing one), plus size
        counters.  Raises :class:`ServeRequestError` on malformed input
        *before* any directory is touched.
        """
        normalized = self._normalize(request)
        try:
            workload = workload_from_spec(normalized["workload_spec"])
        except Exception as exc:
            raise ServeRequestError(f"cannot build workload from spec: {exc}") from None
        spec = {
            **normalized["workload_spec"],
            "fingerprint": workload_fingerprint(workload),
        }
        manifest = build_manifest(
            normalized["grid"],
            normalized["n_shards"],
            evaluator_from_spec(normalized["evaluator"]),
            config_from_dict(normalized["base_config"]),
            spec,
        )
        job_id = study_fingerprint(manifest)
        record = {
            "schema": JOB_SCHEMA,
            "id": job_id,
            **normalized,
            "workload_spec": spec,
            "created": time.time(),
        }
        with self._lock:
            self._bump("submitted")
            if self.cache.lookup(job_id) is not None:
                self._bump("cache_hits")
                job = self._jobs.get(job_id)
                if job is None:
                    job = self._register(job_id, record, state="done")
                self._event(job.root, "cache_hit")
                return self._submit_info(job, cache_hit=True, created=False)
            job = self._jobs.get(job_id)
            if job is not None and job.state != "failed":
                self._bump("deduplicated")
                self._event(job.root, "deduplicated")
                return self._submit_info(job, cache_hit=False, created=False)
            # Backpressure before any disk write: cache hits and dedups
            # above cost nothing, but a new job owes n_shards tasks.
            # Startup resume is exempt — it re-queues work this server
            # already accepted.
            pending = self._queue.qsize()
            n_shards = int(record["n_shards"])
            if pending + n_shards > self.max_pending:
                self._bump("overload_rejections")
                retry_after = max(
                    1.0, min(60.0, pending / max(1, self.workers))
                )
                raise ServeOverloadError(pending, self.max_pending, retry_after)
            job_root = self.jobs_root / job_id
            created = self._publish_job_record(job_root, record)
            if not created:
                # The directory survives from an earlier server life (or
                # a failed run being retried): adopt its durable record.
                record = json.loads((job_root / JOB_NAME).read_text())
            try:
                ResultStore.create_or_attach(job_root / "store", manifest)
            except StoreError as exc:
                raise ServeRequestError(
                    f"job {job_id} has a conflicting store on disk: {exc}"
                ) from None
            self._event(
                job_root,
                "submitted",
                created=created,
                evaluator=record["evaluator"]["name"],
                grid_size=grid_size(record["grid"]),
                n_shards=int(record["n_shards"]),
            )
            job = self._enqueue(job_id, record)
            return self._submit_info(job, cache_hit=False, created=created)

    def _publish_job_record(self, job_root: Path, record: dict) -> bool:
        """Exclusively and atomically create ``job.json`` (claim pattern).

        Same temp-file + hard-link publish as the store manifest: the
        link either creates the file with complete content or fails with
        ``FileExistsError``, so a concurrent identical submission — or a
        re-submission after a crash — can always *parse* whatever it
        finds.  Returns whether this call was the creator.
        """
        job_root.mkdir(parents=True, exist_ok=True)
        path = job_root / JOB_NAME
        tmp = path.with_name(f"{JOB_NAME}.tmp.{os.getpid()}.{threading.get_ident()}")
        tmp.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            tmp.unlink(missing_ok=True)
        return True

    def _register(self, job_id, record, state, error=None) -> JobState:
        job = JobState(
            job_id=job_id,
            request=record,
            root=self.jobs_root / job_id,
            state=state,
            error=error,
        )
        self._jobs[job_id] = job
        return job

    def _enqueue(self, job_id, record) -> JobState:
        """(Re-)queue every shard of a job; caller holds the lock."""
        job = self._register(job_id, record, state="queued")
        job.remaining = set(range(1, job.n_shards + 1))
        (job.root / ERROR_NAME).unlink(missing_ok=True)
        for k in sorted(job.remaining):
            self._queue.put((job_id, k))
        self._note_transition(job, "queued", n_shards=job.n_shards)
        return job

    def _submit_info(self, job, cache_hit, created) -> dict:
        return {
            "id": job.job_id,
            "state": job.state,
            "cache_hit": cache_hit,
            "created": created,
            "n_shards": job.n_shards,
            "grid_size": grid_size(job.request["grid"]),
            "evaluator": job.request["evaluator"]["name"],
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _worker(self):
        while True:
            task = self._queue.get()
            if task is _STOP:
                return
            self._run_task(*task)

    def run_next(self) -> bool:
        """Run one queued shard task in the calling thread.

        The deterministic test hook (and the whole execution path: the
        worker threads run exactly this).  Returns whether a task ran.
        """
        try:
            task = self._queue.get_nowait()
        except queue.Empty:
            return False
        if task is _STOP:
            return False
        self._run_task(*task)
        return True

    def _run_task(self, job_id, shard_index):
        job = self._jobs[job_id]
        with self._lock:
            if job.state == "failed":
                return  # a sibling shard already poisoned the job
            started = job.state == "queued"
            if started:
                job.state = "running"
        if started:
            self._note_transition(job, "running")
        self._event(job.root, "shard_started", shard=shard_index)
        try:
            run = self._execute_shard(job, shard_index)
            self._bump("shards_run")
        except Exception as exc:  # noqa: BLE001 - retried, then job-poisoning
            self._retry_or_fail(job, shard_index, exc)
            return
        self._event(
            job.root,
            "shard_finished",
            shard=shard_index,
            evaluated=run.evaluated,
            skipped=run.skipped,
            failed=run.failed,
        )
        with self._lock:
            job.remaining.discard(shard_index)
            ready = not job.remaining and job.state == "running"
            if ready:
                job.state = "merging"
        if ready:
            self._note_transition(job, "merging")
            try:
                self._merge(job)
            except Exception as exc:  # noqa: BLE001
                self._fail(job, exc)

    def _execute_shard(self, job, shard_index):
        """Run one shard, under the task watchdog when one is configured.

        With a ``task_timeout`` the shard runs on a helper thread so the
        worker can give up on it: a task over budget raises
        :class:`TimeoutError` here and is handled like any other shard
        failure (retry budget, then job failure).  The abandoned thread
        may still finish in the background — its store records are
        duplicate-tolerant, so a late completion is harmless.
        """

        def work():
            workload = workload_from_spec(job.request["workload_spec"])
            return run_shard(
                workload,
                job.request["grid"],
                f"{shard_index}/{job.n_shards}",
                job.store_root,
                base_config=config_from_dict(job.request["base_config"]),
                evaluator=evaluator_from_spec(job.request["evaluator"]),
                workload_spec=job.request["workload_spec"],
                handicap=job.request.get("handicap", 0.0),
            )

        if self.task_timeout is None:
            return work()
        box = {}
        done = threading.Event()

        def target():
            try:
                box["run"] = work()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                box["exc"] = exc
            finally:
                done.set()

        thread = threading.Thread(
            target=target,
            name=f"serve-shard-{job.job_id[:8]}-{shard_index}",
            daemon=True,
        )
        thread.start()
        if not done.wait(self.task_timeout):
            self._bump("task_timeouts")
            raise TimeoutError(
                f"shard {shard_index} exceeded the task timeout "
                f"({self.task_timeout:.1f}s)"
            )
        if "exc" in box:
            raise box["exc"]
        return box["run"]

    def _retry_or_fail(self, job, shard_index, exc):
        """Spend one of the job's task retries, or fail it durably."""
        error = f"{type(exc).__name__}: {exc}"
        with self._lock:
            attempts = job.attempts.get(shard_index, 0) + 1
            job.attempts[shard_index] = attempts
            retry = attempts <= self.task_retries and job.state != "failed"
        if not retry:
            self._fail(job, exc)
            return
        self._bump("task_retries")
        delay = min(2.0, 0.05 * 2 ** (attempts - 1)) * (
            0.5 + random.random()
        )
        _log.warning(
            "job %s shard %d failed (%s); retry %d/%d in %.2fs",
            job.job_id, shard_index, error, attempts, self.task_retries, delay,
        )
        self._event(
            job.root, "shard_retry",
            shard=shard_index, attempt=attempts, error=error,
        )
        time.sleep(delay)
        self._queue.put((job.job_id, shard_index))

    def _merge(self, job):
        """Fold the job's store into the served document (the last mile)."""
        workload = workload_from_spec(job.request["workload_spec"])
        merged = merge_store(job.store_root, workload=workload)
        spec = job.request["workload_spec"]
        payload = dse_result_payload(
            spec.get("model"),
            spec.get("sparsity"),
            merged.manifest["evaluator"]["name"],
            {name: tuple(vs) for name, vs in merged.manifest["grid"].items()},
            list(merged.points),
        )
        self.cache.store(job.job_id, to_json(payload))
        with self._lock:
            job.state = "done"
            self._bump("jobs_completed")
        self._note_transition(
            job,
            "done",
            points=len(merged.points),
            frontier=len(merged.frontier),
            duplicates=merged.duplicates,
        )

    def _fail(self, job, exc):
        error = f"{type(exc).__name__}: {exc}"
        _log.error("job %s failed: %s", job.job_id, error)
        with self._lock:
            job.state = "failed"
            job.error = error
            self._bump("jobs_failed")
        path = job.root / ERROR_NAME
        tmp = path.with_name(f"{ERROR_NAME}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps({"error": error, "t": time.time()}) + "\n")
        os.replace(tmp, path)
        self._note_transition(job, "failed", error=error)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def _get(self, job_id) -> JobState:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def jobs(self) -> list:
        """Brief submission info for every known job (listing endpoint)."""
        with self._lock:
            jobs = list(self._jobs.values())
        return [
            self._submit_info(job, cache_hit=False, created=False)
            for job in sorted(jobs, key=lambda j: j.request.get("created", 0.0))
        ]

    def status(self, job_id) -> dict:
        """One job's progress, served incrementally from the store ledger.

        ``done``/``scored``/``failed_points``/``eta_seconds`` come from
        :func:`repro.dist.store_status` over the job's completion records
        — no evaluator is touched, so polling is always cheap, and the
        numbers advance while shards run.
        """
        job = self._get(job_id)
        spec = job.request["workload_spec"]
        info = {
            "id": job.job_id,
            "state": job.state,
            "evaluator": job.request["evaluator"]["name"],
            "model": spec.get("model"),
            "sparsity": spec.get("sparsity"),
            "n_shards": job.n_shards,
            "grid_size": grid_size(job.request["grid"]),
            "cached": job.state == "done",
        }
        if job.error:
            info["error"] = job.error
        try:
            progress = store_status(job.store_root)
        except StoreError:
            info.update(
                done=0,
                scored=0,
                failed_points=0,
                fraction_done=0.0,
                eta_seconds=None,
                fine_records=0,
            )
            return info
        info.update(
            done=progress.done,
            scored=progress.scored,
            failed_points=progress.failed,
            fraction_done=progress.fraction_done,
            eta_seconds=progress.eta_seconds,
            fine_records=progress.fine_records,
        )
        return info

    def events(self, job_id) -> list:
        """The job's durable lifecycle timeline, oldest record first.

        Decoded from ``events.jsonl`` — submitted/queued/running,
        per-shard start/finish, merging, done or failed, plus cache hits
        and dedups landing on this job.  Torn-tail tolerant like every
        store in this repo; raises :class:`UnknownJobError` for ids this
        data dir has never seen.
        """
        job = self._get(job_id)
        return EventLog(job.root / EVENTS_NAME).read()

    def results(self, job_id):
        """``(text, partial)`` — the rendered results document.

        A finished job serves its cached document *verbatim* (the bytes
        are the contract: byte-identical to ``python -m repro dse
        --json`` on the same study).  An unfinished job streams a partial
        document decoded from the completion records written so far —
        scored points in grid order, marked ``"partial": true`` with
        done/grid-size counters.  A failed job raises
        :class:`JobFailedError`.
        """
        job = self._get(job_id)
        cached = self.cache.lookup(job_id)
        if cached is not None:
            return cached, False
        if job.state == "failed":
            raise JobFailedError(job.error or "job failed")
        store = ResultStore(job.store_root)
        records = {}
        for _, _, path in store.shard_files():
            records.update(store.load_records(path))
        points = []
        for index in sorted(records):
            _, result = decode_record(records[index])
            if isinstance(result, PointFailure):
                continue
            points.append(
                {
                    "index": index,
                    "parameters": dict(result.parameters),
                    "seconds": result.seconds,
                    "energy_joules": result.energy_joules,
                    "edp": result.edp,
                }
            )
        payload = {
            "partial": True,
            "state": job.state,
            "evaluator": job.request["evaluator"]["name"],
            "grid_size": grid_size(job.request["grid"]),
            "done": len(records),
            "points": points,
        }
        return to_json(payload), True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def resume(self) -> list:
        """Re-enqueue every unfinished job directory (server startup).

        A directory with a ``result.json`` registers as done (its cache
        entry already serves), one with an ``error.json`` registers as
        failed (an identical re-submission retries it), and anything
        else goes back on the queue — its shards skip every recorded
        index, so only the genuinely missing work re-runs.
        """
        resumed = []
        if not self.jobs_root.is_dir():
            return resumed
        for job_dir in sorted(self.jobs_root.iterdir()):
            record_path = job_dir / JOB_NAME
            if not record_path.is_file():
                continue
            job_id = job_dir.name
            record = json.loads(record_path.read_text())
            with self._lock:
                if job_id in self._jobs:
                    continue
                if self.cache.lookup(job_id) is not None:
                    self._register(job_id, record, state="done")
                    continue
                error_path = job_dir / ERROR_NAME
                if error_path.is_file():
                    error = json.loads(error_path.read_text()).get("error")
                    self._register(job_id, record, state="failed", error=error)
                    continue
                self._event(job_dir, "resumed")
                self._enqueue(job_id, record)
                resumed.append(job_id)
        return resumed

    def stop(self, timeout=10.0):
        """Stop the worker threads (queued tasks stay durable on disk)."""
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
