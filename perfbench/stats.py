"""Sample statistics and run provenance for the benchmark.

Every timing the benchmark reports is a percentile of many samples, and
a percentile is only *supported* when at least :data:`MIN_BEYOND`
samples lie beyond it — a p90 of 40 samples is really the fourth-largest
value, and moves with every outlier.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly past the q-quantile.

    The quantile interpolates between sorted positions ``floor(r)`` and
    ``ceil(r)`` with ``r = q * (n - 1)``; the samples beyond it are
    those ranked after ``ceil(r)``.
    """
    if n <= 0:
        return 0
    return n - 1 - math.ceil(q * (n - 1))


def _interpolate(ordered, q: float) -> float:
    """Linear-interpolated q-quantile of already sorted, non-empty samples."""
    rank = q * (len(ordered) - 1)
    low, high = math.floor(rank), math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def percentile(values, q: float):
    """Linear-interpolated q-quantile, or ``None`` when unsupported.

    ``None`` means fewer than :data:`MIN_BEYOND` samples lie beyond the
    quantile (see :func:`beyond`), so the value would be an outlier
    rather than a percentile.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    if beyond(len(ordered), q) < MIN_BEYOND:
        return None
    return _interpolate(ordered, q)


def summarize(values, q: float) -> dict:
    """The q-quantile plus what it rests on: sample count and support.

    Unlike :func:`percentile` this always yields a number (a run must
    print every metric), falling back to the plain interpolated quantile
    and flagging it ``supported: false`` in the run's provenance.
    """
    ordered = sorted(values)
    value = percentile(ordered, q)
    supported = value is not None
    if not supported and ordered:
        value = _interpolate(ordered, q)
    return {
        "q": q,
        "value": value,
        "n": len(ordered),
        "beyond": beyond(len(ordered), q),
        "supported": supported,
    }


def median(values) -> float:
    """Plain median (0.0 for no samples: an unexercised layer did no work)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, workload: str, seed: int, seconds: float,
               trace: bool) -> dict:
    """What a result was measured on and with (recorded in every artifact)."""
    import numpy

    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
    }
