"""Self-tests of the benchmark itself (not part of the repository's tier-1 run).

    python3 -m pytest -q perfbench/tests/selftest.py

The smoke tests run every workload for a couple of seconds through the
real command, so the whole file takes about two minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import serving, stats  # noqa: E402
from perfbench.run import UNGATED, load_benchmark  # noqa: E402
from repro.serve import ServeError  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
def test_median_needs_ten_samples_beyond_it():
    assert stats.percentile(range(20), 0.5) is None
    assert stats.percentile(range(21), 0.5) == 10


def test_p90_needs_101_samples():
    assert stats.beyond(100, 0.9) == 9
    assert stats.percentile(range(100), 0.9) is None
    assert stats.beyond(101, 0.9) == 10
    assert stats.percentile(range(101), 0.9) == 90


def test_summarize_flags_an_unsupported_percentile_but_still_reports_it():
    summary = stats.summarize(range(40), 0.9)
    assert summary == {"q": 0.9, "value": 35.1, "n": 40, "beyond": 3,
                       "supported": False}
    assert stats.summarize(range(21), 0.5)["supported"]


def test_percentile_rejects_a_quantile_outside_0_1():
    with pytest.raises(ValueError):
        stats.percentile(range(50), 1.5)


# ----------------------------------------------------------------------
# The open-loop generator, against a fake server on a virtual clock
# ----------------------------------------------------------------------
class VirtualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += max(0.0, seconds)


class FakeClient:
    """Jobs finish on the first poll; ``post_s`` per POST, ``fail`` by index."""

    def __init__(self, clock, post_s=0.0, fail=None):
        self.clock = clock  # a VirtualClock, or time.time with post_s=0
        self.post_s = post_s
        self.fail = fail or {}

    def submit(self, request):
        if self.post_s:
            self.clock.sleep(self.post_s)
        error = self.fail.get(request["n"])
        if error is not None:
            raise error
        return {"id": str(request["n"]), "cache_hit": False}

    def status(self, job_id):
        return {"state": "done"}

    def raw_results(self, job_id):
        return b"{}"


def _schedule(dues):
    return [serving.Arrival(i, due, "warm", {"n": i}) for i, due in enumerate(dues)]


def _run(schedule, client):
    clock = client.clock
    generator = serving.Generator(schedule, lambda: client, threads=1,
                                  clock=clock, sleep=clock.sleep)
    return generator.run(start=100.0)


def test_latency_counts_from_the_scheduled_send_time():
    clock = VirtualClock()
    # One connection; every POST takes 0.5 s, arrivals are due 0.1 s apart.
    records = _run(_schedule([0.0, 0.1, 0.2]), FakeClient(clock, post_s=0.5))
    assert [r["due"] for r in records] == pytest.approx([100.0, 100.1, 100.2])
    lags = [r["sent"] - r["due"] for r in records]
    assert lags == pytest.approx([0.0, 0.4, 0.8])
    # Due sends go before polls, and every job finishes after the last
    # POST: the stall a slow request imposes on later ones is in their
    # latency, counted from when each was due.
    assert [r["finished"] for r in records] == pytest.approx([101.5] * 3)
    assert [r["latency"] for r in records] == pytest.approx([1.5, 1.4, 1.3])


def test_a_slow_request_ties_up_one_thread_not_the_schedule():
    class OneSlowPost(FakeClient):
        def submit(self, request):
            if request["n"] == 0:
                time.sleep(0.3)  # real time: the other thread runs meanwhile
            return super().submit(request)

    client = OneSlowPost(time.time)
    records = serving.Generator(_schedule([0.0, 0.01, 0.02]), lambda: client,
                                threads=2).run(start=time.time())
    assert all(r["ok"] for r in records)
    assert records[2]["finished"] < records[0]["finished"]
    assert records[2]["sent"] - records[2]["due"] < 0.1


def test_the_generator_waits_for_due_times_it_is_ahead_of():
    clock = VirtualClock()
    records = _run(_schedule([1.0, 3.0]), FakeClient(clock))
    assert [r["sent"] for r in records] == pytest.approx([101.0, 103.0])
    assert [r["latency"] for r in records] == pytest.approx([0.0, 0.0])


def test_a_503_and_a_timeout_are_failures_and_slo_misses():
    clock = VirtualClock()
    client = FakeClient(clock, fail={
        1: ServeError(503, "queue full"),
        2: TimeoutError("timed out"),
    })
    records = _run(_schedule([0.0, 0.1, 0.2, 0.3]), client)
    assert [r["ok"] for r in records] == [True, False, False, True]
    assert "503" in records[1]["error"] and "Timeout" in records[2]["error"]
    summary = serving.end_to_end(records, start=100.0)
    assert summary["failed"] == 2
    assert summary["metrics"]["ok_share"] == 0.5
    assert summary["metrics"]["slo_met_share"] == 0.5


def test_a_job_that_never_finishes_times_out():
    clock = VirtualClock()

    class Stuck(FakeClient):
        def status(self, job_id):
            return {"state": "running"}

    records = _run(_schedule([0.0]), Stuck(clock))
    assert not records[0]["ok"] and "TimeoutError" in records[0]["error"]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_the_schedule_is_a_function_of_the_seed():
    first = serving.make_schedule(7, 25)
    assert first == serving.make_schedule(7, 25)
    assert first != serving.make_schedule(8, 25)
    kinds = [a.kind for a in first]
    n = round(serving.RATE_PER_S * 25)
    assert len(first) == n
    assert kinds.count("cold") == round(n * serving.COLD_SHARE)
    assert kinds.count("hit") == round(n * serving.HIT_SHARE)
    dues = [a.due for a in first]
    assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] < 25


def test_hits_repost_an_earlier_warm_study_and_colds_are_all_new():
    schedule = serving.make_schedule(3, 25)
    for arrival in schedule:
        if arrival.kind == "hit":
            ref = schedule[arrival.ref]
            assert ref.kind == "warm" and ref.request == arrival.request
            assert ref.due <= arrival.due - serving.HIT_MIN_AGE_S
    warm_seeds = {a.request["workload_spec"]["seed"] for a in schedule
                  if a.kind != "cold"}
    cold_seeds = [a.request["workload_spec"]["seed"] for a in schedule
                  if a.kind == "cold"]
    assert warm_seeds == {3}
    assert len(set(cold_seeds)) == len(cold_seeds) and 3 not in cold_seeds
    grids = [json.dumps(a.request["grid"]) for a in schedule if a.kind != "hit"]
    assert len(set(grids)) == len(grids)


def test_fsync_is_counted_not_sent(tmp_path):
    from perfbench.studies import counted_fsync

    counter, real = [0], os.fsync
    with counted_fsync(counter), open(tmp_path / "ledger", "w") as fh:
        os.fsync(fh.fileno())
        os.fsync(fh.fileno())
    assert counter == [2] and os.fsync is real


# ----------------------------------------------------------------------
# BENCHMARK.json and the command
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


BENCH = load_benchmark()
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + [UNGATED]


def test_benchmark_json_keeps_to_its_format_limits():
    doc = BENCH
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    for metric in doc["end_to_end"]:
        assert UNIT.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in doc["end_to_end"])} in doc["end_to_end"]
    assert all(UNIT.match(m["unit"]) for m in doc["per_layer"])


def test_the_command_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-cycle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "5", "--seconds", "2",
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    expected = [(m["name"], m["unit"]) for m in BENCH["per_layer" if trace else "end_to_end"]]
    if trace and workload == UNGATED:
        expected += serving.LAYER_METRICS
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
