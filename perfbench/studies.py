"""The in-process workloads: ``sweep-cycle``, ``shard-analytical``, ``serve-jobs``.

All three are closed loops with one caller: a study starts when the
previous one returns.  The run's seed is the attention-map seed, so
every seed simulates different masks.

* ``sweep-cycle`` — one study is ``sweep_design_space(evaluator="cycle")``
  plus ``pareto_frontier`` on DeiT-Base at 0.9 sparsity over a
  1080-point grid.  The batched cycle walk in ``repro.sim`` is nearly all
  of it.  ``act_buffer_kb`` is not part of the walk's scan-table key, so
  points share tables across that axis.
* ``shard-analytical`` — one study is ``run_shard`` into a fresh store,
  ``merge_store`` and the render (``dse_result_payload`` + ``to_json``)
  on the same model and grid.  The analytical kernel is a small share;
  record encoding, appends, merge parsing and rendering are the rest.
* ``serve-jobs`` — one study is a round of the job service in process:
  :class:`repro.serve.jobs.JobManager` (no worker threads) takes six new
  144-point studies on the same model, one per evaluator and shard
  count, runs their shard tasks with ``run_next`` until the queue is
  empty, answers a status and a results call for each, and serves one
  re-submitted earlier study from its result cache.

The stores live in the run's work directory, but ``os.fsync`` is
replaced by a counter while the workloads run (:func:`counted_fsync`):
on a shared VM disk a flush took 15-25 ms per study and swung with
other tenants' I/O, which moved ``shard-analytical`` by more than the
gate's bound between identical runs.  The count is reported per layer
(``dist.fsyncs``), so a change to how often the program syncs still
shows.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro import obs
from repro.dist import merge as dist_merge
from repro.dist import runner as dist_runner
from repro.dist.store import ResultStore
from repro.harness import dse, serialization
from repro.perf import cached_model_workload
from repro.serve import jobs as serve_jobs_module
from repro.serve.jobs import JobManager
from repro.sim.evaluator import (
    BatchedAnalyticalEvaluator,
    BatchedCycleSimEvaluator,
    CycleSimEvaluator,
)

from .spans import COUNTERS, SpanClock, patched
from .stats import median, summarize

MODEL = "deit-base"
SPARSITY = 0.9
#: 9 x 6 x 5 x 4 = 1080 points, the paper-scale grid of BENCH_perf.json.
GRID = {
    "mac_lines": (8, 16, 24, 32, 64, 128, 256, 384, 512),
    "bandwidth_gbps": (19.2, 38.4, 76.8, 153.6, 307.2, 614.4),
    "act_buffer_kb": (32, 64, 128, 256, 512),
    "ae_compression": (None, 0.25, 0.5, 0.75),
}
GRID_POINTS = 1080

#: One ``serve-jobs`` round: a job per (evaluator, shard count).
JOB_MIX = [(evaluator, shards) for evaluator in ("analytical", "cycle", "hybrid")
           for shards in (1, 2)]
#: A job's grid is 9 x 4 x 4 = 144 points; its bandwidths are multiples
#: of a base bandwidth no other job of the run uses.  Rounds of jobs
#: this size on DeiT-Base follow the host's speed swings about as much
#: as ``shard-analytical``; rounds of 64-point deit-tiny jobs swung
#: about twice as much and gave ten-run spreads of 0.19-0.30.
JOB_MAC_LINES = GRID["mac_lines"]
JOB_BANDWIDTH_STEPS = (1, 2, 4, 8)
JOB_AE_COMPRESSION = (None, 0.25, 0.5, 0.75)
JOB_POINTS = len(JOB_MAC_LINES) * len(JOB_BANDWIDTH_STEPS) * len(JOB_AE_COMPRESSION)
#: A hit re-submits a study of one of this many most recent rounds.
HIT_WINDOW = 20
#: Served jobs re-rendered in process after the window (plus every job
#: of the warm-up round).
JOB_CHECK_SAMPLE = 18

#: Grid points scored per study (cache hits score none).
POINTS = {"sweep-cycle": GRID_POINTS, "shard-analytical": GRID_POINTS,
          "serve-jobs": len(JOB_MIX) * JOB_POINTS}
#: Latency limit per study: a study slower than this misses its SLO.
SLO_S = {"sweep-cycle": 0.6, "shard-analytical": 0.3, "serve-jobs": 1.0}
#: The reported tail percentile.  A 30 s run holds only ~90 sweeps, too
#: few for a supported p90 (101); the other workloads use p75 too,
#: because their p90 follows the host's short stalls.
TAIL_Q = 0.75
#: Grid points re-scored one at a time by the per-point cycle evaluator.
CHECK_SAMPLE = 24


class OutputMismatch(AssertionError):
    """A study produced different output than the reference."""


@dataclass
class Context:
    """Everything a study needs, built before the first timed study."""

    name: str
    seed: int
    work_dir: Path
    workload: object
    build_s: float
    rng: random.Random
    reference: object = None
    stores: int = 0
    store_bytes: list = field(default_factory=list)
    fsyncs: list = field(default_factory=lambda: [0])
    manager: object = None
    used_bandwidths: set = field(default_factory=set)
    rounds: list = field(default_factory=list)  # serve-jobs: requests per round
    served: list = field(default_factory=list)  # serve-jobs: (request, sha256)
    digests: dict = field(default_factory=dict)  # serve-jobs: job id -> sha256

    def fresh_store(self) -> Path:
        self.stores += 1
        return self.work_dir / f"store-{self.stores}"


@contextmanager
def counted_fsync(counter):
    """Count ``os.fsync`` calls in ``counter[0]`` instead of flushing."""

    def fsync(fd):
        counter[0] += 1

    with patched([(os, "fsync", fsync)]):
        yield


def _no_span(name):
    return nullcontext()


def sweep_cycle(ctx, span=_no_span):
    with span("dse.sweep"):
        points = dse.sweep_design_space(ctx.workload, GRID, evaluator="cycle")
    frontier = dse.pareto_frontier(points)
    return points, frontier


def shard_analytical(ctx, span=_no_span):
    store = ctx.fresh_store()
    with span("dist.shard"):
        dist_runner.run_shard(
            ctx.workload,
            GRID,
            "1/1",
            store,
            evaluator="analytical",
            workload_spec=dist_runner.model_workload_spec(
                MODEL, sparsity=SPARSITY, seed=ctx.seed
            ),
        )
    with span("dist.merge"):
        merged = dist_merge.merge_store(store)
    with span("serialization.render"):
        text = _render(merged.points)
    return store, text


def _render(points):
    payload = serialization.dse_result_payload(
        MODEL, SPARSITY, "analytical", GRID, list(points)
    )
    return serialization.to_json(payload)


def _job_request(ctx, evaluator, n_shards):
    bandwidth = round(ctx.rng.uniform(4.0, 64.0), 3)
    while bandwidth in ctx.used_bandwidths:
        bandwidth = round(ctx.rng.uniform(4.0, 64.0), 3)
    ctx.used_bandwidths.add(bandwidth)
    return {
        "grid": {
            "mac_lines": list(JOB_MAC_LINES),
            "bandwidth_gbps": [bandwidth * step for step in JOB_BANDWIDTH_STEPS],
            "ae_compression": list(JOB_AE_COMPRESSION),
        },
        "evaluator": evaluator,
        "workload_spec": {"kind": "model", "model": MODEL,
                          "sparsity": SPARSITY, "seed": ctx.seed},
        "n_shards": n_shards,
    }


def serve_jobs(ctx, span=_no_span):
    """One round: six new jobs, drained, observed, plus one cache hit."""
    manager = ctx.manager
    requests = [_job_request(ctx, *mix) for mix in JOB_MIX]
    # The hit re-submits a study of an earlier round: its result is cached.
    earlier = ctx.rounds[-HIT_WINDOW:]
    hit_request = ctx.rng.choice(ctx.rng.choice(earlier)) if earlier else None
    ids = []
    for request in requests:
        with span("serve.submit"):
            ids.append(manager.submit(request)["id"])
    with span("serve.run"):
        while manager.run_next():
            pass
    texts = []
    for job_id in ids:
        with span("serve.status"):
            state = manager.status(job_id)["state"]
        if state != "done":
            raise RuntimeError(f"job {job_id} ended {state}")
        with span("serve.results"):
            text, partial = manager.results(job_id)
        if partial:
            raise RuntimeError(f"job {job_id} served a partial document")
        texts.append(text)
    hit = None
    if hit_request is not None:
        with span("serve.hit"):
            info = manager.submit(hit_request)
            hit = (info, manager.results(info["id"])[0])
    ctx.rounds.append(requests)
    return requests, ids, texts, hit


STUDIES = {"sweep-cycle": sweep_cycle, "shard-analytical": shard_analytical,
           "serve-jobs": serve_jobs}


def prepare(name: str, seed: int, work_dir: Path) -> Context:
    """Build the workload and run one untimed warm-up study.

    Everything here is set-up: the run's ``setup_s`` times exactly this
    in fresh processes, so work moved out of the timed study into lazy
    set-up still shows.  The output checks' references are built later,
    outside set-up (:func:`check_output`, :func:`final_checks`).
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    workload = cached_model_workload(MODEL, sparsity=SPARSITY, seed=seed)
    ctx = Context(name, seed, work_dir, workload, perf_counter() - start,
                  random.Random(seed))
    if name == "serve-jobs":
        ctx.manager = JobManager(work_dir / "data", workers=0)
    with counted_fsync(ctx.fsyncs):
        output = STUDIES[name](ctx)
    if name == "sweep-cycle":
        ctx.reference = output
    elif name == "serve-jobs":
        check_output(ctx, output)
    else:
        shutil.rmtree(output[0], ignore_errors=True)
    return ctx


def expected_job_text(request) -> str:
    """The in-process render of one served study: what the service must return."""
    spec = request["workload_spec"]
    workload = cached_model_workload(spec["model"], sparsity=spec["sparsity"],
                                     seed=spec["seed"])
    grid = {name: tuple(values) for name, values in request["grid"].items()}
    points = dse.sweep_design_space(workload, grid, evaluator=request["evaluator"])
    payload = serialization.dse_result_payload(
        spec["model"], spec["sparsity"], request["evaluator"], grid, points
    )
    return serialization.to_json(payload)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_output(ctx, output):
    """Compare one study's output with the reference (untimed).

    ``shard-analytical`` renders its reference, the in-memory sweep, on
    the first check.  ``serve-jobs`` keeps every served document's digest:
    a cache hit must equal its first fetch here, and the warm-up round
    and a seeded sample of the rest must equal the in-process render
    (:func:`final_checks`).
    """
    if ctx.name == "sweep-cycle":
        if output != ctx.reference:
            raise OutputMismatch("sweep differs from the warm-up sweep")
        return
    if ctx.name == "serve-jobs":
        requests, ids, texts, hit = output
        for request, job_id, text in zip(requests, ids, texts):
            ctx.digests[job_id] = _sha256(text)
            ctx.served.append((request, ctx.digests[job_id]))
        if hit is not None:
            info, text = hit
            if not info["cache_hit"]:
                raise OutputMismatch(f"re-submitted job {info['id']} was not a cache hit")
            if _sha256(text) != ctx.digests.get(info["id"]):
                raise OutputMismatch(f"cache hit {info['id']} differs from its first fetch")
        return
    store, text = output
    ctx.store_bytes.append(
        sum(path.stat().st_size for _, _, path in ResultStore(store).shard_files())
    )
    shutil.rmtree(store, ignore_errors=True)
    if ctx.reference is None:
        ctx.reference = _render(dse.sweep_design_space(ctx.workload, GRID))
    if text != ctx.reference:
        raise OutputMismatch("merged render differs from the in-memory sweep's")


def final_checks(ctx) -> dict:
    """Whole-output checks after the timed window: digest and mismatches."""
    mismatches = []
    if ctx.name == "sweep-cycle":
        points, _frontier = ctx.reference
        if len(points) != GRID_POINTS:
            mismatches.append(f"sweep kept {len(points)} of {GRID_POINTS} points")
        rng = random.Random(ctx.seed)
        sample = sorted(rng.sample(range(len(points)), min(CHECK_SAMPLE, len(points))))
        per_point = dse.iter_indexed_design_points(
            ctx.workload, GRID, indices=sample, evaluator=CycleSimEvaluator()
        )
        mismatches.extend(
            f"grid point {index} differs from the per-point evaluator"
            for index, point in per_point
            if point != points[index]
        )
        values = [[point.seconds, point.energy_joules] for point in points]
        digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
        return {"digest": digest, "checked_points": sample, "mismatches": mismatches}
    if ctx.name == "serve-jobs":
        # Every job of the warm-up round, and a seeded sample of the rest.
        rng = random.Random(ctx.seed)
        later = range(len(JOB_MIX), len(ctx.served))
        sample = list(range(min(len(JOB_MIX), len(ctx.served))))
        sample += sorted(rng.sample(later, min(JOB_CHECK_SAMPLE, len(later))))
        mismatches.extend(
            f"served job {k} differs from the in-process render"
            for k in sample
            if _sha256(expected_job_text(ctx.served[k][0])) != ctx.served[k][1]
        )
        # The warm-up round's documents: the same for every run of a seed.
        digest = hashlib.sha256(
            json.dumps([sha for _, sha in ctx.served[:len(JOB_MIX)]]).encode()
        ).hexdigest()
        return {"digest": digest, "checked_jobs": sample, "mismatches": mismatches}
    kept = len(json.loads(ctx.reference)["points"])
    if kept != GRID_POINTS:
        mismatches.append(f"render kept {kept} of {GRID_POINTS} points")
    return {"digest": _sha256(ctx.reference), "mismatches": mismatches}


def _closed_loop(ctx, seconds, tracer=None):
    """Run studies back to back for ``seconds``; returns the samples.

    A study that raises is a failure; one whose output differs from the
    reference is a mismatch, which also fails the run's correctness.
    With a ``tracer``, every second study runs traced (see
    :func:`measure_traced`); the others stay the untraced baseline.
    """
    loop = {"samples": [], "traced": [], "failures": [], "mismatches": [], "slo_met": 0}
    study = STUDIES[ctx.name]
    deadline = perf_counter() + seconds
    count = 0
    while perf_counter() < deadline:
        traced = tracer is not None and count % 2 == 1
        count += 1
        if traced:
            tracer.clock.take()  # drop what a failed study left behind
        with tracer.active() if traced else nullcontext(), counted_fsync(ctx.fsyncs):
            span = tracer.clock.span if traced else _no_span
            start = perf_counter()
            try:
                with span("study"):
                    output = study(ctx, span)
                elapsed = perf_counter() - start
                check_output(ctx, output)
            except OutputMismatch as exc:
                loop["mismatches"].append(str(exc))
                continue
            except Exception as exc:  # noqa: BLE001 - a failed study is a sample
                loop["failures"].append(f"{type(exc).__name__}: {exc}")
                continue
        loop["traced" if traced else "samples"].append(elapsed)
        loop["slo_met"] += elapsed <= SLO_S[ctx.name]
        if traced:
            tracer.per_study.append((elapsed, *tracer.clock.take()))
    loop["failures"] += loop["mismatches"]
    return loop


def measure(ctx, seconds) -> dict:
    """The untraced run: every end-to-end metric but ``setup_s``."""
    loop = _closed_loop(ctx, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = loop["samples"]
    if not samples:
        raise RuntimeError(f"no study completed: {loop['failures'][:3]}")
    attempted = len(samples) + len(loop["failures"])
    p50 = summarize(samples, 0.5)
    tail = summarize(samples, TAIL_Q)
    return {
        "attempted": attempted,
        "failed": len(loop["failures"]),
        "failures": loop["failures"][:20],
        "mismatches": loop["mismatches"],
        "metrics": {
            "p50_s": p50["value"],
            "tail_s": tail["value"],
            "points_per_s": POINTS[ctx.name] / p50["value"],
            "ok_share": 1.0 - len(loop["failures"]) / attempted,
            "slo_met_share": loop["slo_met"] / attempted,
            "peak_rss_mb": peak_rss_mb,
        },
        "percentiles": {"p50_s": p50, "tail_s": tail},
        "slo_s": SLO_S[ctx.name],
        "samples": samples,
    }


#: Span name -> the layer self-time metric it feeds.
SELF_METRICS = {
    "sim.cycle_batch": "sim.cycle_batch_s",
    "sim.analytical_batch": "sim.analytical_batch_s",
    "dse.sweep": "dse.self_s",
    "dse.pareto": "dse.pareto_s",
    "dist.shard": "dist.shard_self_s",
    "dist.merge": "dist.merge_s",
    "serialization.render": "serialization.render_s",
    "serve.submit": "serve.submit_s",
    "serve.run": "serve.run_self_s",
    "serve.status": "serve.status_s",
    "serve.results": "serve.results_s",
    "serve.hit": "serve.hit_s",
}


class _Tracer:
    """Spans around the calls between layers, switched on per study."""

    def __init__(self, trace):
        self.clock = SpanClock(trace)
        self.registry = obs.Registry(enabled=True)
        self.registry.tracer = trace
        self.per_study = []  # (elapsed, self_s, calls, inclusive_s) per traced study
        wrap = self.clock.wrapped
        pareto = wrap(dse.pareto_frontier, "dse.pareto")
        self.targets = [
            (dse, "pareto_frontier", pareto),
            (dist_merge, "pareto_frontier", pareto),
            (
                BatchedCycleSimEvaluator,
                "evaluate_batch",
                wrap(BatchedCycleSimEvaluator.evaluate_batch, "sim.cycle_batch"),
            ),
            (
                BatchedAnalyticalEvaluator,
                "evaluate_batch",
                wrap(BatchedAnalyticalEvaluator.evaluate_batch, "sim.analytical_batch"),
            ),
            # The job service calls into dist and the render by these names.
            (serve_jobs_module, "run_shard",
             wrap(serve_jobs_module.run_shard, "dist.shard")),
            (serve_jobs_module, "merge_store",
             wrap(serve_jobs_module.merge_store, "dist.merge")),
            (serve_jobs_module, "dse_result_payload",
             wrap(serve_jobs_module.dse_result_payload, "serialization.render")),
            (serve_jobs_module, "to_json",
             wrap(serve_jobs_module.to_json, "serialization.render")),
        ]

    @contextmanager
    def active(self):
        with obs.use_registry(self.registry), patched(self.targets):
            yield


def measure_traced(ctx, seconds, trace) -> dict:
    """The traced run: every second study has a span on each layer call.

    Per-layer numbers come from the traced studies; the untraced ones,
    interleaved with them in the same process, give the tracing overhead.
    """
    tracer = _Tracer(trace)
    ctx.store_bytes.clear()
    ctx.fsyncs[0] = 0
    loop = _closed_loop(ctx, seconds, tracer)
    per_study = tracer.per_study
    traced_studies = max(1, len(per_study))
    all_studies = max(1, len(loop["samples"]) + len(per_study))

    def self_s(name):
        return median(s.get(name, 0.0) for _, s, _, _ in per_study)

    def calls(name):
        return median(c.get(name, 0) for _, _, c, _ in per_study)

    layer = {metric: self_s(name) for name, metric in SELF_METRICS.items()}
    layer.update(
        {
            "perf.build_s": ctx.build_s,
            "sim.batches": calls("sim.cycle_batch") + calls("sim.analytical_batch"),
            "dist.shard_s": median(i.get("dist.shard", 0.0) for *_, i in per_study),
            "dist.bytes_per_point": median(ctx.store_bytes) / GRID_POINTS,
            "dist.fsyncs": ctx.fsyncs[0] / all_studies,
        }
    )
    for name in COUNTERS:
        layer[f"obs.{name}"] = (tracer.registry.value(name) or 0) / traced_studies
    # The root "study" span's self time is what no layer covers.
    sums = [sum(s.get(name, 0.0) for name in SELF_METRICS) for _, s, _, _ in per_study]
    untraced_p50 = median(loop["samples"])
    traced_p50 = median(loop["traced"])
    layer.update(
        {
            "trace.self_sum_s": median(sums),
            "trace.residual_share": median(
                s.get("study", 0.0) / elapsed for elapsed, s, _, _ in per_study
            ),
            "trace.untraced_p50_s": untraced_p50,
            "trace.traced_p50_s": traced_p50,
            "trace.overhead_share": traced_p50 / untraced_p50 - 1.0,
        }
    )
    return {
        "attempted": len(loop["samples"]) + len(loop["traced"]) + len(loop["failures"]),
        "failed": len(loop["failures"]),
        "failures": loop["failures"][:20],
        "mismatches": loop["mismatches"],
        "metrics": layer,
        "layer_sum_of_medians_s": sum(layer[m] for m in SELF_METRICS.values()),
        "studies_traced": len(per_study),
    }
