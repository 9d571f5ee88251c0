"""Benchmark-side spans around the calls into each layer of ``repro``.

The traced run wraps a layer's public functions from *this* package
(the program itself is not edited) and records one span per call.  A
span's *self time* is its duration minus the time its child spans cover,
so the self times of one study sum to the study's wall time; what the
benchmark's own loop spends lands in the root span's self time and is
reported as the residual.

Spans are kept in memory as Chrome trace events (:class:`repro.obs.ChromeTrace`,
the collector ``python -m repro dse --trace`` uses) and written once,
when the run ends; the file loads in https://ui.perfetto.dev.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: ``repro.obs`` work counters reported per study or per completed job,
#: as the per-layer ``obs.<name>`` metrics.
COUNTERS = ("dse_points_scored", "dse_chunks_dispatched", "dist_records_written")


class SpanClock:
    """Nested span timer for one thread: self and total times, calls, trace."""

    def __init__(self, trace):
        self.trace = trace
        self._stack = []
        self._self = defaultdict(float)
        self._calls = defaultdict(int)
        self._total = defaultdict(float)

    @contextmanager
    def span(self, name, **args):
        start = perf_counter()
        self._stack.append(0.0)
        try:
            yield
        finally:
            duration = perf_counter() - start
            children = self._stack.pop()
            if self._stack:
                self._stack[-1] += duration
            self._self[name] += duration - children
            self._calls[name] += 1
            self._total[name] += duration
            self.trace.add_complete(name, start, duration, args or None)

    def take(self):
        """``(self_seconds, calls, total_seconds)`` per span name since the last take."""
        taken = dict(self._self), dict(self._calls), dict(self._total)
        self._self.clear()
        self._calls.clear()
        self._total.clear()
        return taken

    def wrapped(self, function, name):
        """``function`` with every call recorded as span ``name``."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return wrapper


@contextmanager
def patched(targets):
    """Temporarily replace attributes: ``targets`` is ``[(owner, attr, new)]``.

    Used to route calls *between* layers (the DSE engine calling an
    evaluator, the merge calling ``pareto_frontier``) through a span
    without touching the program's source; every original comes back on
    exit.
    """
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, new in targets:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
