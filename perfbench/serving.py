"""The ``serve-mixed`` workload: open-loop mixed traffic against a live server.

``python -m repro serve --port 0 --serve-workers 2`` runs in its own
process with a fresh data dir.  One generator process (this one) sends
a seeded schedule of arrivals — Poisson at a fixed rate, well below
capacity — from at most ``nproc`` threads, each holding one connection
at a time:

* ``warm`` — a new 16-point deit-tiny study on the already-built
  workload, evaluator analytical, cycle or hybrid, 1 or 2 shards;
* ``hit`` — a re-POST of a study sent at least a few seconds earlier,
  so the server answers it from its result cache;
* ``cold`` — a study on a deit-tiny workload (another seed) the server
  has not built, so the POST handler builds it first.

Each job is polled with ``GET /jobs/<id>`` until done and its results
fetched.  Latency runs from the arrival's *scheduled* send time, so a
late generator or a stalled server shows up in every job behind it.
"""

from __future__ import annotations

import heapq
import os
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.harness import dse, serialization
from repro.perf import cached_model_workload
from repro.serve import ServeClient

from .spans import COUNTERS
from .stats import median, summarize

MODEL = "deit-tiny"
SPARSITY = 0.9
MAC_LINES = (16, 32, 64, 128)
#: A study sweeps these multiples of its own base bandwidth.
BANDWIDTH_STEPS = (1, 2, 4, 8)
POINTS_PER_JOB = len(MAC_LINES) * len(BANDWIDTH_STEPS)
EVALUATORS = ("analytical", "cycle", "hybrid")
#: Arrivals per second, all kinds together.  A warm job takes ~30 ms of
#: server time alone, so this is a fraction of capacity.
RATE_PER_S = 8.0
COLD_SHARE = 0.01
HIT_SHARE = 0.12
#: A hit re-POSTs a study scheduled at least this long before it.
HIT_MIN_AGE_S = 2.0
THREADS = min(2, os.cpu_count() or 1)
SERVER_WORKERS = 2
POLL_S = 0.02
REQUEST_TIMEOUT_S = 10.0
JOB_TIMEOUT_S = 30.0
#: A warm POST slower than this waited behind another request (a cold
#: build holds the workload cache's lock for ~0.3 s; a free POST takes
#: ~10 ms).
BLOCKED_POST_S = 0.05
#: A warm job slower than this, or failed, misses its SLO.
SLO_S = 1.0
TAIL_Q = 0.9
BOOT_TIMEOUT_S = 60.0

#: Per-layer metrics only this workload reports, printed after the ones
#: ``BENCHMARK.json`` lists (``serve-mixed`` is not in it; see README.md).
LAYER_METRICS = [
    ("serve.post_warm_p50_s", "s"),
    ("serve.post_cold_p50_s", "s"),
    ("serve.post_blocked_share", "share"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.shard_p50_s", "s"),
    ("serve.merge_p50_s", "s"),
    ("serve.poll_delay_p50_s", "s"),
    ("serve.status_p50_s", "s"),
    ("serve.results_p50_s", "s"),
    ("serve.stage_residual_p50_s", "s"),
    ("serve.cold_job_p50_s", "s"),
    ("serve.hit_p50_s", "s"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.rejections", "count"),
    ("serve.task_retries", "count"),
    ("gen.lag_p90_s", "s"),
]


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when, what kind, and the study it posts."""

    index: int
    due: float  # seconds after the run's start
    kind: str  # "warm" | "hit" | "cold"
    request: dict
    ref: int = -1  # a hit's warm arrival


def _study(base_bw, evaluator, n_shards, seed):
    return {
        "grid": {
            "mac_lines": list(MAC_LINES),
            "bandwidth_gbps": [base_bw * step for step in BANDWIDTH_STEPS],
        },
        "evaluator": evaluator,
        "workload_spec": {
            "kind": "model",
            "model": MODEL,
            "sparsity": SPARSITY,
            "seed": seed,
        },
        "n_shards": n_shards,
    }


def _stratified(rng, candidates, count):
    """``count`` picks from ``candidates``, one per equal slice, in order."""
    picks = []
    for k in range(count):
        low = k * len(candidates) // count
        block = candidates[low:(k + 1) * len(candidates) // count]
        if block:
            picks.append(rng.choice(block))
    return picks


def make_schedule(seed: int, seconds: float, rate: float = RATE_PER_S) -> list:
    """The run's arrivals, a pure function of ``seed`` and ``seconds``.

    Exactly ``rate * seconds`` arrivals, their times uniform over the
    window (a Poisson process conditioned on its count, so the offered
    load is the same for every seed).  Cold arrivals sit at evenly
    spaced positions and hits are spread evenly, and the evaluator and
    shard-count mix is balanced, so each seed sees the same traffic
    per second and differs only in timing, grids and masks.
    """
    rng = random.Random(seed)
    n = max(1, round(rate * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    n_cold = round(n * COLD_SHARE)
    cold = {int((k + 0.5) * n / n_cold) for k in range(n_cold)}
    age = min(HIT_MIN_AGE_S, seconds / 4)
    hit_candidates = [i for i in range(n) if i not in cold and dues[i] >= age]
    hits = set(_stratified(rng, hit_candidates, round(n * HIT_SHARE)))
    mix = [(evaluator, shards) for evaluator in EVALUATORS for shards in (1, 2)]
    mix = mix * (n // len(mix) + 1)
    rng.shuffle(mix)
    used_bw = set()
    arrivals = []
    colds = 0
    for index, due in enumerate(dues):
        if index in hits:
            warm = [a for a in arrivals if a.kind == "warm" and a.due <= due - age]
            if warm:
                ref = rng.choice(warm)
                arrivals.append(Arrival(index, due, "hit", ref.request, ref.index))
                continue
        bw = round(rng.uniform(4.0, 64.0), 3)
        while bw in used_bw:
            bw = round(rng.uniform(4.0, 64.0), 3)
        used_bw.add(bw)
        kind = "warm"
        workload_seed = seed
        if index in cold:
            # Seeds no other arrival uses: the server has never built them.
            kind, workload_seed, colds = "cold", seed + 1 + colds, colds + 1
        evaluator, shards = mix.pop()
        request = _study(bw, evaluator, shards, workload_seed)
        arrivals.append(Arrival(index, due, kind, request))
    return arrivals


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
def _wait_done(client, job_id, deadline):
    while True:
        state = client.status(job_id)["state"]
        if state == "done":
            return
        if state == "failed" or time.time() > deadline:
            raise RuntimeError(f"warm-up job {job_id} ended {state}")
        time.sleep(POLL_S)


def boot(root: Path, data_dir: Path, seed: int, log_path: Path):
    """Start a server and warm it up; returns ``(proc, url, seconds)``.

    Warm-up is one study per evaluator on the run's workload, so the
    first timed job finds the workload built and each evaluator's
    geometry memoized.  The seconds cover spawn to warm-up done.
    """
    from perfbench.run import read_line, stop

    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--serve-workers", str(SERVER_WORKERS), "--data-dir", str(data_dir)],
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
            env=env,
            cwd=root,
        )
    try:
        banner = read_line(proc, BOOT_TIMEOUT_S)
        match = re.search(r"listening on (\S+)", banner)
        if match is None:
            raise RuntimeError(f"unexpected server banner {banner!r}")
        url = match.group(1)
        client = ServeClient(url, timeout=REQUEST_TIMEOUT_S, retries=0)
        deadline = time.time() + BOOT_TIMEOUT_S
        for k, evaluator in enumerate(EVALUATORS):
            info = client.submit(_study(1.0 + k / 2, evaluator, 1, seed))
            _wait_done(client, info["id"], deadline)
    except BaseException:
        stop(proc)
        raise
    return proc, url, time.perf_counter() - start


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def scrape(client) -> dict:
    """Counter totals from ``GET /metrics`` (label sets summed)."""
    totals = {}
    for line in client.metrics_text().splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{", 1)[0]
        try:
            totals[name] = totals.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return totals


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------
class Generator:
    """Drive a schedule open-loop from ``THREADS`` threads.

    Every step of every job — the POST when it falls due, each status
    poll, the results fetch — is a task in one time-ordered queue, and
    each thread runs whichever task is ready first on its own client
    (one connection at a time).  A slow request therefore ties up one
    thread, not the whole schedule: the others keep sending and
    polling, and sends only run late when every thread is stuck.

    ``client_factory`` builds one client per thread (a test substitutes
    a fake).  ``traced`` decides, per arrival, whether its requests are
    recorded as spans in ``trace``.
    """

    def __init__(self, schedule, client_factory, trace=None, traced=lambda a: False,
                 threads=THREADS, clock=time.time, sleep=time.sleep):
        self.schedule = schedule
        self.client_factory = client_factory
        self.trace = trace
        self.traced = traced
        self.threads = threads
        self.clock = clock
        self.sleep = sleep
        self.records = [None] * len(schedule)
        self.status_s = []
        self._lock = threading.Lock()
        self._tasks = []  # heap of (ready time, sequence, step, arrival)
        self._sequence = 0
        self._busy = 0

    def run(self, start: float) -> list:
        """Send every arrival, due at ``start + arrival.due``; returns records."""
        for arrival in self.schedule:
            self._push(start + arrival.due, "post", arrival)
        workers = [threading.Thread(target=self._worker, daemon=True)
                   for _ in range(self.threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        return self.records

    def _push(self, ready, step, arrival):
        heapq.heappush(self._tasks, (ready, self._sequence, step, arrival))
        self._sequence += 1

    def _worker(self):
        client = self.client_factory()
        while True:
            with self._lock:
                if not self._tasks and not self._busy:
                    return
                task, wait = None, POLL_S / 2
                if self._tasks:
                    wait = self._tasks[0][0] - self.clock()
                    if wait <= 0:
                        task = heapq.heappop(self._tasks)
                        self._busy += 1
            if task is None:
                # Another thread may queue an earlier task meanwhile, so
                # never sleep longer than half a poll interval.
                self.sleep(min(wait, POLL_S / 2))
                continue
            ready, _, step, arrival = task
            follow = self._step(client, step, arrival, ready)
            with self._lock:
                if follow is not None:
                    self._push(follow[0], follow[1], arrival)
                self._busy -= 1

    def _span(self, arrival, name, begin, end, **args):
        if self.trace is not None and self.traced(arrival):
            offset = time.time() - time.perf_counter()
            args = {"arrival": arrival.index, "kind": arrival.kind, **args}
            self.trace.add_complete(name, begin - offset, end - begin, args)

    def _step(self, client, step, arrival, ready):
        """Run one step of ``arrival``'s job; returns the next ``(ready, step)``."""
        clock = self.clock
        try:
            if step == "post":
                record = {"index": arrival.index, "kind": arrival.kind, "due": ready,
                          "sent": clock(), "ok": False}
                self.records[arrival.index] = record
                info = client.submit(arrival.request)
                posted = clock()
                record.update(id=info["id"], cache_hit=bool(info["cache_hit"]),
                              post_s=posted - record["sent"])
                self._span(arrival, "serve.post", record["sent"], posted)
                return posted, "results" if info["cache_hit"] else "poll"
            record = self.records[arrival.index]
            if step == "poll":
                asked = clock()
                state = client.status(record["id"])["state"]
                answered = clock()
                self.status_s.append(answered - asked)
                self._span(arrival, "serve.status", asked, answered, state=state)
                if state == "done":
                    return answered, "results"
                if state == "failed":
                    raise RuntimeError(f"job {record['id']} failed")
                if answered - record["sent"] > JOB_TIMEOUT_S:
                    raise TimeoutError(f"job {record['id']} still {state} after "
                                       f"{JOB_TIMEOUT_S:.0f}s")
                return answered + POLL_S, "poll"
            seen = clock()
            body = client.raw_results(record["id"])
            finished = clock()
            self._span(arrival, "serve.results", seen, finished)
            self._span(arrival, "job", record["due"], finished)
            record.update(seen=seen, results_s=finished - seen, finished=finished,
                          latency=finished - record["due"], body=body, ok=True)
        except Exception as exc:  # noqa: BLE001 - failures are the measurement
            self.records[arrival.index]["error"] = f"{type(exc).__name__}: {exc}"
        return None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(records, start) -> dict:
    """The end-to-end metrics of one run's records (all but setup and RSS).

    A failed or refused request counts as attempted and failed, and a
    failed warm job misses the SLO.
    """
    warm = [r for r in records if r["kind"] == "warm"]
    warm_ok = [r["latency"] for r in warm if r["ok"]]
    if not warm_ok:
        raise RuntimeError(f"no warm job completed: {records[0].get('error')}")
    done = [r for r in records if r["ok"]]
    scored = [r for r in done if not r.get("cache_hit")]
    window = max((r["finished"] for r in done), default=start + 1.0) - start
    p50 = summarize(warm_ok, 0.5)
    tail = summarize(warm_ok, TAIL_Q)
    failed = sum(1 for r in records if not r["ok"])
    return {
        "metrics": {
            "p50_s": p50["value"],
            "tail_s": tail["value"],
            "points_per_s": POINTS_PER_JOB * len(scored) / window,
            "ok_share": 1.0 - failed / len(records),
            "slo_met_share": sum(1 for lat in warm_ok if lat <= SLO_S) / len(warm),
        },
        "percentiles": {"p50_s": p50, "tail_s": tail},
        "failed": failed,
        "window_s": window,
    }


def event_times(events) -> dict:
    """First timestamp of each event kind in a job's timeline."""
    times = {}
    for event in events:
        times.setdefault(event["event"], event["t"])
    return times


def stages(record, times) -> dict:
    """One job's latency split into stages, from client and server clocks.

    The server's event timestamps and the client's are the same host's
    wall clock.  ``STAGES`` sum to the latency (scheduled send to the
    server's ``done``) up to the residual: the POST response overlaps the
    enqueue, so it is slightly negative.  The poll delay and the results
    fetch come after ``done`` and are the client's own stages.
    """
    parts = {
        "lag": record["sent"] - record["due"],
        "post": record["post_s"],
        "queue_wait": times["running"] - times["queued"],
        "shard": times["merging"] - times["running"],
        "merge": times["done"] - times["merging"],
    }
    parts["residual"] = record["latency"] - sum(parts.values())
    parts["latency"] = record["latency"]
    parts["poll_delay"] = record["seen"] - times["done"]
    parts["results"] = record["results_s"]
    return parts


STAGES = ("lag", "post", "queue_wait", "shard", "merge")


def traced_index(index: int) -> bool:
    """Every second arrival is traced; the others are the untraced baseline."""
    return index % 2 == 1


def per_layer(records, status_s, start, breakdown, counters):
    """The per-layer metrics of a traced run, and each median's support.

    Returns ``(metrics, percentiles)``: the second maps every per-layer
    median to its :func:`~perfbench.stats.summarize` record (sample
    count and whether ten samples lie beyond it).
    """
    warm_ok = [r for r in records if r["kind"] == "warm" and r["ok"]]
    cold_ok = [r for r in records if r["kind"] == "cold" and r["ok"]]
    hits = [r for r in records if r["kind"] == "hit" and r["ok"] and r["cache_hit"]]
    done = [r for r in records if r["ok"]]
    window = max((r["finished"] for r in done), default=start + 1.0) - start
    jobs = max(1.0, counters.get("serve_jobs_completed", 0.0))
    percentiles = {}

    def pct(name, values, q=0.5):
        percentiles[name] = summarize(list(values), q)
        return percentiles[name]["value"] or 0.0

    blocked = sum(1 for r in warm_ok if r["post_s"] > BLOCKED_POST_S)
    metrics = {
        "serve.post_blocked_share": blocked / max(1, len(warm_ok)),
        "serve.jobs_per_s": len(done) / window,
        "serve.rejections": counters.get("serve_overload_rejections", 0.0),
        "serve.task_retries": counters.get("serve_task_retries", 0.0),
    }
    lags = [r["sent"] - r["due"] for r in records]
    metrics["gen.lag_p90_s"] = pct("gen.lag_p90_s", lags, 0.9)
    for name, values in (
        ("serve.post_warm_p50_s", [r["post_s"] for r in warm_ok]),
        ("serve.post_cold_p50_s", [r["post_s"] for r in cold_ok]),
        ("serve.status_p50_s", status_s),
        ("serve.results_p50_s", [r["results_s"] for r in done]),
        ("serve.cold_job_p50_s", [r["latency"] for r in cold_ok]),
        ("serve.hit_p50_s", [r["latency"] for r in hits]),
    ):
        metrics[name] = pct(name, values)
    for name in COUNTERS:
        metrics[f"obs.{name}"] = counters.get(name, 0.0) / jobs
    for stage in ("queue_wait", "shard", "merge", "poll_delay"):
        name = f"serve.{stage}_p50_s"
        metrics[name] = pct(name, (parts[stage] for parts in breakdown))
    metrics["serve.stage_residual_p50_s"] = pct(
        "serve.stage_residual_p50_s", (parts["residual"] for parts in breakdown)
    )
    latencies = {True: [], False: []}
    for r in warm_ok:
        latencies[traced_index(r["index"])].append(r["latency"])
    untraced = pct("trace.untraced_p50_s", latencies[False])
    traced = pct("trace.traced_p50_s", latencies[True])
    metrics.update(
        {
            "trace.self_sum_s": median(
                sum(parts[name] for name in STAGES) for parts in breakdown
            ),
            "trace.residual_share": median(
                parts["residual"] / parts["latency"] for parts in breakdown
            ),
            "trace.untraced_p50_s": untraced,
            "trace.traced_p50_s": traced,
            "trace.overhead_share": traced / untraced - 1.0 if untraced else 0.0,
        }
    )
    return metrics, percentiles


# ----------------------------------------------------------------------
# Output checks (after the timed window)
# ----------------------------------------------------------------------
def expected_text(request) -> str:
    """The in-process render of one study: what the server must return."""
    spec = request["workload_spec"]
    workload = cached_model_workload(spec["model"], sparsity=spec["sparsity"],
                                     seed=spec["seed"])
    grid = {name: tuple(values) for name, values in request["grid"].items()}
    points = dse.sweep_design_space(workload, grid, evaluator=request["evaluator"])
    payload = serialization.dse_result_payload(
        spec["model"], spec["sparsity"], request["evaluator"], grid, points
    )
    return serialization.to_json(payload)


def check(schedule, records) -> list:
    """Mismatches: fetched bytes vs the in-process render, hits vs first fetch."""
    mismatches = []
    for arrival, record in zip(schedule, records):
        if not record["ok"]:
            continue
        if arrival.kind == "hit":
            first = records[arrival.ref]
            if first["ok"] and record["body"] != first["body"]:
                mismatches.append(
                    f"arrival {arrival.index}: hit differs from the first fetch"
                )
            continue
        if record["body"].decode("utf-8") != expected_text(arrival.request):
            mismatches.append(f"arrival {arrival.index}: result differs from "
                              f"the in-process render")
    return mismatches


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(root: Path, seed: int, seconds: float, trace: bool, work_dir: Path,
        trace_path) -> dict:
    from perfbench.run import SETUP_REPEATS, stop
    from repro.obs import ChromeTrace

    work_dir.mkdir(parents=True, exist_ok=True)
    schedule = make_schedule(seed, seconds)
    setup, proc = [], None
    try:
        for k in range(SETUP_REPEATS):
            if proc is not None:
                stop(proc)
            proc, url, elapsed = boot(root, work_dir / f"data-{k}", seed,
                                      work_dir / "server.log")
            setup.append(elapsed)
        chrome = ChromeTrace() if trace else None
        generator = Generator(
            schedule,
            lambda: ServeClient(url, timeout=REQUEST_TIMEOUT_S, retries=0),
            trace=chrome,
            traced=lambda arrival: traced_index(arrival.index),
        )
        start = time.time() + 0.05
        records = generator.run(start)
        client = ServeClient(url, timeout=REQUEST_TIMEOUT_S, retries=0)
        peak_rss_mb = _peak_rss_mb(proc.pid)
        # A job's latency ends at the server's "done" event, not when a
        # poll happened to see it: polling every POLL_S would otherwise
        # round every latency up to the next poll.
        breakdown = []
        for record in records:
            if record["ok"] and not record["cache_hit"]:
                times = event_times(client.events(record["id"]))
                record["latency"] = times["done"] - record["due"]
                if record["kind"] == "warm":
                    breakdown.append(stages(record, times))
        counters = scrape(client) if trace else {}
    finally:
        if proc is not None:
            stop(proc)

    build_start = time.perf_counter()
    cached_model_workload(MODEL, sparsity=SPARSITY, seed=seed)
    build_s = time.perf_counter() - build_start
    mismatches = check(schedule, records)

    summary = end_to_end(records, start)
    result = {
        "attempted": len(records),
        "failed": summary["failed"] + len(mismatches),
        "failures": [r["error"] for r in records if not r["ok"]][:20],
        "mismatches": mismatches,
        "setup_samples": setup,
        "window_s": summary["window_s"],
        "percentiles": summary["percentiles"],
        "slo_s": SLO_S,
        "rate_per_s": RATE_PER_S,
        "kinds": {kind: sum(1 for a in schedule if a.kind == kind)
                  for kind in ("warm", "hit", "cold")},
        "records": [{k: v for k, v in r.items() if k != "body"} for r in records],
    }
    if trace:
        layer, result["layer_percentiles"] = per_layer(
            records, generator.status_s, start, breakdown, counters
        )
        result["metrics"] = dict(layer, **{"perf.build_s": build_s})
        result["counters"] = counters
        result["stage_breakdown"] = breakdown
        chrome.write(trace_path)
        result["trace_file"] = str(Path(trace_path).relative_to(root))
    else:
        result["metrics"] = dict(summary["metrics"], setup_s=median(setup),
                                 peak_rss_mb=peak_rss_mb)
    return result
