"""Run one benchmark workload and print its metrics (see README.md).

    python3 perfbench/run.py --workload sweep-cycle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 5      # every workload

The workloads and metrics are the ones ``BENCHMARK.json`` at the
repository root lists, plus :data:`UNGATED`.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.
The exit code is 0 only when every output check passed.  Raw samples,
provenance and (traced runs) a Chrome trace go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120.0
#: Runs like the workloads ``BENCHMARK.json`` lists but is left out of
#: it: its job latencies follow the host's syscall and wake-up latency,
#: which swung 4x between runs on the 2-vCPU VM it was measured on, so
#: ten-run spreads of its p50 reached 0.4-1.0, past any allowed bound.
UNGATED = "serve-mixed"


def _import_program():
    """Put the checkout's ``src`` first on the path, or fail loudly."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def read_line(proc, timeout_s: float) -> str:
    """The child's next stdout line, or ``TimeoutError`` after ``timeout_s``."""
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout_s):
            raise TimeoutError(f"no output from pid {proc.pid} in {timeout_s:.0f}s")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"pid {proc.pid} exited with code {proc.wait()}")
    return line


def stop(proc, timeout_s: float = 20.0):
    """Terminate ``proc`` and wait for it; kill it if it will not stop."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from spawning a fresh interpreter until it could time a study."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            read_line(proc, SETUP_TIMEOUT_S)
            samples.append(time.perf_counter() - start)
            proc.wait(SETUP_TIMEOUT_S)
        finally:
            stop(proc)
    return samples


def _setup_probe(workload: str, seed: int):
    from perfbench import studies

    work_dir = OUT / "work" / f"probe-{os.getpid()}"
    try:
        studies.prepare(workload, seed, work_dir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import stats

    work_dir = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    trace_path = OUT / f"trace-{workload}-seed{seed}.json" if trace else None
    try:
        if workload == "serve-mixed":
            from perfbench import serving

            result = serving.run(ROOT, seed, seconds, trace, work_dir, trace_path)
        else:
            result = _run_study(workload, seed, seconds, trace, work_dir, trace_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["provenance"] = stats.provenance(ROOT, workload, seed, seconds, trace)
    return result


def _run_study(workload, seed, seconds, trace, work_dir, trace_path):
    from perfbench import studies
    from repro.obs import ChromeTrace

    setup = [] if trace else measure_setup(workload, seed)
    ctx = studies.prepare(workload, seed, work_dir)
    if trace:
        chrome = ChromeTrace()
        result = studies.measure_traced(ctx, seconds, chrome)
        chrome.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        result = studies.measure(ctx, seconds)
        result["metrics"]["setup_s"] = statistics.median(setup)
    result["setup_samples"] = setup
    checks = studies.final_checks(ctx)
    mismatches = checks.pop("mismatches")
    result["mismatches"] += mismatches
    result["failed"] += len(mismatches)
    result["checks"] = checks
    return result


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _report(bench: dict, workload: str, seed: int, trace: bool, result: dict) -> dict:
    """Print the human-readable table and write the raw per-run artifact."""
    correct = not result["mismatches"]
    # A layer this workload does not exercise did no work: it reports 0.
    names = [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]
    if trace and workload == UNGATED:
        from perfbench import serving

        names += serving.LAYER_METRICS
    metrics = {
        name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
        for name, unit in names
    }
    for name, metric in metrics.items():
        print(f"{workload:>16}  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    if "digest" in result.get("checks", {}):
        print(f"{workload:>16}  output digest {result['checks']['digest']}")
    for mismatch in result["mismatches"][:10]:
        print(f"{workload:>16}  MISMATCH {mismatch}")
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    artifact = runs / f"{workload}-seed{seed}-trace{int(trace)}.json"
    artifact.write_text(json.dumps(result, indent=1, default=str) + "\n")
    summary = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    return summary


def _run_all(args, workloads) -> int:
    """Every workload in turn, each in its own process; nonzero on any failure."""
    code = 0
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    bench = load_benchmark()
    names = [entry["name"] for entry in bench["workloads"]] + [UNGATED]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return _run_all(args, names)
    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = _report(bench, args.workload, args.seed, bool(args.trace), result)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
