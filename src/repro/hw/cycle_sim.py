"""Event-driven cycle simulator of the two-pronged ViTCoD pipeline.

The analytical model (:mod:`repro.hw.accelerator`) charges phase times in
closed form; this simulator *executes* the schedule instead: every (head,
column) of the polarized mask becomes a job, jobs flow through shared
resources (one DRAM channel via :class:`~repro.hw.dram.DramModel`, two
engine MAC-line groups, per-engine softmax units) with double-buffered K
loads, and the makespan/utilization emerge from resource contention rather
than from max() formulas.

It exists for two reasons, mirroring how the paper validates its simulator
against RTL:

* **validation** — the test suite checks that the event-driven makespan and
  the analytical phase model agree within a bounded factor and move
  together across sparsity levels;
* **schedule insight** — it reports per-resource busy time (denser engine,
  sparser engine, DRAM, softmax), exposing utilization effects the closed
  form can only assume.

It is deliberately column-granular (an event per K column, not per cycle):
fine enough to capture pipelining and contention, coarse enough to simulate
a 197-token, 12-head layer in microseconds of wall time.

Two interchangeable engines implement the same schedule:

* ``engine="vectorized"`` (default) expresses the per-column FCFS queue
  recurrences as numpy scans — the double-buffered compute recurrence
  ``compute_free[i] = max(compute_free[i-1], load_done[i]) + cycles[i]``
  is a max-plus scan, computed as
  ``cumsum(cycles) + maximum.accumulate(load_done - exclusive_cumsum(cycles))``
  — so a whole layer is a handful of array ops;
* ``engine="scalar"`` is the original per-:class:`ColumnJob` Python event
  loop, retained as the executable reference semantics.

To let tests assert *exact* (bitwise) agreement between the two, every
event duration is snapped to a ``2**-20``-cycle grid (:func:`_quantize`):
compute and softmax durations are integer cycle counts already, and DRAM
service times are quantized at the single point where they enter the event
algebra.  With all durations on that grid and makespans far below ``2**33``
cycles, every double-precision add/max in either engine is exact, so the
scan and the loop agree bit-for-bit regardless of association order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil
from typing import List, Optional, Tuple

import numpy as np

from ..perf.memo import instance_memo
from ..sim.engine import AttentionSimulatorBase, merge_results
from .allocator import allocate_mac_lines, allocate_mac_lines_batched
from .dram import DramModel, DramRequest
from .params import VITCOD_DEFAULT, HardwareConfig
from .workload import AttentionWorkload, ModelWorkload, split_remainder

__all__ = ["Timeline", "EngineSchedule", "CycleSimResult",
           "CycleAccurateSimulator", "merge_cycle_results"]

#: Durations are quantized to multiples of ``1 / _TIME_SCALE`` cycles so the
#: event algebra is exact in double precision (see module docstring).
_TIME_SCALE = float(1 << 20)


def _quantize(cycles):
    """Snap a duration to the ``2**-20``-cycle grid."""
    return round(cycles * _TIME_SCALE) / _TIME_SCALE


def _queue_scan(request_times, durations, init=0.0):
    """Vectorized FCFS queue: ``f[i] = max(f[i-1], request_times[i]) + durations[i]``.

    ``f[-1] = init``.  Unrolling the recurrence gives
    ``f[i] = C[i] + max(init, max_{j<=i}(request_times[j] - C[j-1]))`` with
    ``C = cumsum(durations)`` — an associative max-plus scan.  Returns the
    array of completion times (empty input -> empty array).
    """
    durations = np.asarray(durations, dtype=np.float64)
    if durations.size == 0:
        return durations
    total = np.cumsum(durations)
    slack = np.asarray(request_times, dtype=np.float64) - (total - durations)
    return total + np.maximum(np.maximum.accumulate(slack), init)


def _queue_scan_rows(request_times, durations, init):
    """Row-wise :func:`_queue_scan` along the last axis: one independent
    FCFS queue per row.

    Running the cumulative sums and maxima along ``axis=-1`` restarts the
    recurrence at every row — rows are the batched engines' reset points,
    whether the batch is 2-D ``(layers, jobs)`` (the whole-model scans)
    or 3-D ``(points, rows, jobs)`` (the grid-batched DSE walk).
    ``init`` and ``request_times`` broadcast against ``durations``: a
    per-row ``(rows, 1)`` init, a scalar ``0.0``, or config-independent
    ``(rows, jobs)`` durations under ``(points, rows, jobs)`` request
    times all mean the same recurrence on the same values.
    """
    if durations.shape[-1] == 0:
        return durations
    total = np.cumsum(durations, axis=-1)
    slack = request_times - (total - durations)
    return total + np.maximum(np.maximum.accumulate(slack, axis=-1), init)


def _pad_rows(arrays):
    """Stack variable-length int64 job arrays into a zero-padded matrix.

    Returns ``(matrix, lengths)``; zero products mean zero-duration jobs,
    so padded slots are inert in every duration computation.
    """
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    width = int(lengths.max()) if lengths.size else 0
    matrix = np.zeros((len(arrays), width), dtype=np.int64)
    for i, a in enumerate(arrays):
        matrix[i, : a.size] = a
    return matrix, lengths


def _masked_load_times(base, step, lengths, width):
    """Per-row load-completion ladders ``base + step * (1..width)``.

    Slots at or beyond a row's length get ``-inf`` request times: combined
    with their zero durations they can never raise a row's running
    max-plus state, so padding is invisible to the scans.
    """
    ladder = base[:, None] + step[:, None] * np.arange(1, width + 1)
    ladder[np.arange(width)[None, :] >= lengths[:, None]] = -np.inf
    return ladder


def _row_finals(values, lengths):
    """Last real (unpadded) value of each row; 0.0 for empty rows."""
    if values.shape[1] == 0:
        return np.zeros(lengths.size)
    picked = values[np.arange(lengths.size), np.maximum(lengths - 1, 0)]
    return np.where(lengths > 0, picked, 0.0)


#: float64 cells one grid-walk scan array may hold: the design-point axis
#: of :meth:`CycleAccurateSimulator.simulate_attention_grid` is walked in
#: sub-batches of ``budget // cells_per_point`` points, so peak memory is
#: bounded no matter how many points one ``evaluate_batch`` chunk holds.
#: 2**20 cells (8 MiB) measured fastest on DeiT-Base grids: the in-place
#: scans then run cache-resident instead of streaming from DRAM (1<<22
#: was ~2x slower wall-clock for identical results).
_GRID_CELL_BUDGET = 1 << 20


def _width_bands(widths):
    """Group row indices into power-of-two width bands.

    Rows whose job counts share a bit length land in one band, so each
    band's matrix is padded only to its own widest row and every row
    fills more than half of it (max/min width ratio < 2 within a band)
    — no row is ever padded to the width of a far-wider band.  This is
    why the whole-model scan runs one matrix per engine: the denser
    engine's rows are ~15× narrower than the sparser engine's, so
    folding them into one matrix wastes most of its cells.  Zero-width
    rows are dropped (they have no events to scan).
    Returns int64 row-index arrays, one per band, narrowest band first.
    """
    bands = {}
    for i, width in enumerate(widths):
        width = int(width)
        if width <= 0:
            continue
        bands.setdefault(width.bit_length(), []).append(i)
    return [np.array(bands[bits], dtype=np.int64) for bits in sorted(bands)]


@dataclass
class Timeline:
    """A serially-shared resource: requests queue FCFS."""

    name: str
    free_at: float = 0.0
    busy: float = 0.0
    served: int = 0

    def acquire(self, earliest_start, duration):
        """Reserve the resource; returns (start, completion) times."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(earliest_start, self.free_at)
        self.free_at = start + duration
        self.busy += duration
        self.served += 1
        return start, start + duration

    def utilization(self, makespan):
        if makespan <= 0:
            return 0.0
        return min(1.0, self.busy / makespan)


@dataclass(frozen=True)
class ColumnJob:
    """One K column's worth of SDDMM work on one head."""

    head: int
    column: int
    products: int  # masked Q·K dot products in this column
    load_bytes: int
    sequential: bool


@dataclass
class EngineSchedule:
    """Execution state of one engine (denser or sparser)."""

    name: str
    mac_lines: int
    macs_per_line: int
    jobs: List[ColumnJob] = field(default_factory=list)
    finish_time: float = 0.0

    def compute_cycles(self, job, head_dim):
        if job.products == 0:
            return 0.0
        waves = ceil(job.products / max(self.mac_lines, 1))
        return waves * ceil(head_dim / self.macs_per_line)


@dataclass
class CycleSimResult:
    """Outcome of one event-driven simulation (a layer or a whole model).

    Whole-model results additionally carry the per-layer breakdown in
    ``per_layer`` (one single-layer :class:`CycleSimResult` per attention
    layer, in layer order) so figure runners can plot layer-resolved
    makespans/utilizations from one batched run.
    """

    makespan: float
    sddmm_makespan: float
    spmm_makespan: float
    denser_busy: float
    sparser_busy: float
    dram_busy: float
    softmax_busy: float
    jobs_executed: int
    per_layer: Tuple["CycleSimResult", ...] = ()

    @property
    def denser_utilization(self):
        return self.denser_busy / self.makespan if self.makespan else 0.0

    @property
    def sparser_utilization(self):
        return self.sparser_busy / self.makespan if self.makespan else 0.0

    @property
    def dram_utilization(self):
        return self.dram_busy / self.makespan if self.makespan else 0.0

    def _layers(self):
        """This result as a tuple of single-layer results."""
        return self.per_layer if self.per_layer else (self,)

    def merged(self, other: "CycleSimResult") -> "CycleSimResult":
        """Concatenate two sequential results (mirrors ``SimReport.merged``):
        totals add, ``per_layer`` chains both sides' layer breakdowns."""
        return CycleSimResult(
            makespan=self.makespan + other.makespan,
            sddmm_makespan=self.sddmm_makespan + other.sddmm_makespan,
            spmm_makespan=self.spmm_makespan + other.spmm_makespan,
            denser_busy=self.denser_busy + other.denser_busy,
            sparser_busy=self.sparser_busy + other.sparser_busy,
            dram_busy=self.dram_busy + other.dram_busy,
            softmax_busy=self.softmax_busy + other.softmax_busy,
            jobs_executed=self.jobs_executed + other.jobs_executed,
            per_layer=self._layers() + other._layers(),
        )


def merge_cycle_results(results) -> CycleSimResult:
    """Fold per-layer results into one whole-model :class:`CycleSimResult`.

    Raises :class:`ValueError` on an empty sequence; the merged result
    always exposes ``per_layer`` (even for a single layer).
    """
    results = list(results)
    total = merge_results(results, "no attention layers to simulate")
    if len(results) == 1:
        total = replace(total, per_layer=(results[0],))
    return total


class CycleAccurateSimulator(AttentionSimulatorBase):
    """Event-driven companion to :class:`ViTCoDAccelerator`.

    Parameters
    ----------
    config:
        Hardware design point (defaults to the paper's).
    use_ae:
        Compress Q/K streams/loads by ``ae_compression``.
    dram:
        Optional custom :class:`DramModel` (burst/row-buffer behaviour).
    engine:
        ``"vectorized"`` (default) runs the numpy scan scheduler; for
        whole-model runs it batches every layer into one 2-D scan (rows are
        the per-layer reset points).  ``"scalar"`` runs the reference
        per-job event loop, layer by layer.  Both produce identical
        :class:`CycleSimResult` values.
    """

    _ENGINES = ("vectorized", "scalar")

    name = "CycleSim"

    def __init__(self, config: Optional[HardwareConfig] = None, use_ae=True,
                 ae_compression=0.5, dram: Optional[DramModel] = None,
                 engine="vectorized"):
        self.config = config or VITCOD_DEFAULT
        self.use_ae = use_ae
        if not 0.0 < ae_compression <= 1.0:
            raise ValueError("ae_compression must be in (0, 1]")
        if engine not in self._ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {self._ENGINES}"
            )
        self.ae_compression = ae_compression
        self.engine = engine
        self.dram = dram or DramModel(
            bytes_per_cycle=self.config.bytes_per_cycle
        )

    # ------------------------------------------------------------------
    def _service(self, nbytes, sequential=True, tag=""):
        """Grid-quantized DRAM service time for one request (see module doc)."""
        return _quantize(self.dram.service_cycles(
            DramRequest(bytes=nbytes, sequential=sequential, tag=tag)
        ))

    def _build_jobs(self, layer: AttentionWorkload):
        """Split the layer's columns into denser and sparser job lists."""
        b = self.config.bytes_per_element
        ratio = self.ae_compression if self.use_ae else 1.0
        k_col_bytes = int(layer.head_dim * b * ratio)
        denser, sparser = [], []
        for h, head in enumerate(layer.heads):
            for col in range(head.num_global_tokens):
                denser.append(ColumnJob(
                    head=h, column=col, products=head.num_tokens,
                    load_bytes=k_col_bytes, sequential=True,
                ))
            col_nnz = head.sparser_column_nnz
            if col_nnz is None:
                # Fall back to the mean density when per-column counts are
                # unavailable (e.g. dense workloads); the remainder lands on
                # the leading columns so no products are dropped.
                col_nnz = split_remainder(
                    head.sparser_nnz, head.num_tokens - head.num_global_tokens
                )
            for j, nnz in enumerate(col_nnz):
                if nnz == 0:
                    continue
                sparser.append(ColumnJob(
                    head=h, column=head.num_global_tokens + j,
                    products=int(nnz), load_bytes=k_col_bytes,
                    sequential=True,
                ))
        return denser, sparser

    def _column_products(self, layer: AttentionWorkload):
        """Per-column SDDMM products for both engines as int64 arrays.

        Mirrors :meth:`_build_jobs` (same job order, zero-product sparser
        columns dropped) without materialising per-job objects; the arrays
        are memoized on the (frozen) workload so repeated simulations of a
        cached workload — DSE sweeps, benchmark repeats — skip the
        per-head walk entirely.
        """
        return layer.denser_job_products(), layer.sparser_job_products()

    def _run_engine(self, engine: EngineSchedule, dram: Timeline,
                    softmax: Timeline, head_dim, start_time=0.0):
        """Run one engine's job list with double-buffered K loads."""
        cfg = self.config
        load_done = start_time
        compute_free = start_time
        for job in engine.jobs:
            service = self._service(job.load_bytes, sequential=job.sequential)
            # Double buffering: the next K load may proceed while the
            # previous column computes, but loads serialise on the channel.
            _, load_done = dram.acquire(load_done, service)
            compute_cycles = engine.compute_cycles(job, head_dim)
            begin = max(compute_free, load_done)
            compute_free = begin + compute_cycles
            engine.finish_time = compute_free
            # Softmax consumes the finished column asynchronously.
            softmax.acquire(
                compute_free,
                ceil(job.products / cfg.softmax_lanes),
            )
        return engine.finish_time

    # ------------------------------------------------------------------
    def _layer_geometry(self, layer: AttentionWorkload):
        """Byte/tile quantities shared by both engines."""
        cfg = self.config
        b = cfg.bytes_per_element
        ratio = self.ae_compression if self.use_ae else 1.0
        k_col_bytes = int(layer.head_dim * b * ratio)
        tensor_bytes = layer.num_tokens * layer.embed_dim * b
        # Q stream occupies the channel up front (in k-tile chunks that
        # interleave with the K column loads in the real machine; FCFS
        # serialisation is a faithful upper bound at this granularity).
        k_tiles = max(1, ceil(tensor_bytes * ratio / (cfg.act_buffer_bytes / 2)))
        q_stream = int(tensor_bytes * ratio * k_tiles)
        return k_col_bytes, tensor_bytes, q_stream

    # ------------------------------------------------------------------
    # Per-(workload, config) geometry, memoized on the (frozen) workload.
    #
    # DSE sweeps hold the workload fixed while configs change, so each
    # piece of derived geometry is keyed by exactly the configuration
    # fields it reads: MAC-line allocations survive a bandwidth sweep,
    # DRAM service times survive a mac_lines sweep, and repeat scoring of
    # any point is free.  The tables live on the workload instance (the
    # slot is stripped from pickles alongside the job-product caches) so
    # every simulator sharing a cached workload shares them.
    # ------------------------------------------------------------------
    _GEOMETRY_SLOT = "_cycle_geometry"

    def _dram_memo_key(self):
        """Hashable DRAM signature, or ``None`` when memoizing is unsafe
        (a custom :class:`DramModel` subclass may read state the key
        cannot see)."""
        dram = self.dram
        if type(dram) is not DramModel:
            return None
        return (dram.bytes_per_cycle, dram.burst_bytes,
                dram.row_miss_penalty_cycles, dram.scattered_row_hit_rate)

    def _layer_services(self, layer: AttentionWorkload):
        """Quantized DRAM service times ``(q_stream, k_column, v_stream)``."""
        dram_key = self._dram_memo_key()
        if dram_key is None:
            return self._build_layer_services(layer)
        cfg = self.config
        ratio = self.ae_compression if self.use_ae else 1.0
        key = ("services", cfg.bytes_per_element, cfg.act_buffer_bytes,
               ratio, dram_key)
        return instance_memo(layer, self._GEOMETRY_SLOT, key,
                             lambda: self._build_layer_services(layer))

    def _build_layer_services(self, layer):
        k_col_bytes, tensor_bytes, q_stream = self._layer_geometry(layer)
        return (self._service(q_stream, tag="q-stream"),
                self._service(k_col_bytes),
                self._service(2 * tensor_bytes, tag="v-stream"))

    def _layer_alloc(self, layer: AttentionWorkload):
        """Engine MAC-line split ``(denser_lines, sparser_lines)``, both
        floored at 1 as the schedulers require."""
        key = ("alloc", self.config.num_mac_lines)
        return instance_memo(layer, self._GEOMETRY_SLOT, key,
                             lambda: self._build_layer_alloc(layer))

    def _build_layer_alloc(self, layer):
        head_dim = layer.head_dim
        denser_products, sparser_products = self._column_products(layer)
        alloc = allocate_mac_lines(
            self.config.num_mac_lines,
            int(denser_products.sum()) * head_dim,
            int(sparser_products.sum()) * head_dim,
        )
        return max(alloc.denser_lines, 1), max(alloc.sparser_lines, 1)

    def simulate_layer(self, layer: AttentionWorkload) -> CycleSimResult:
        if self.engine == "scalar":
            return self._simulate_layer_scalar(layer)
        return self._simulate_layer_vectorized(layer)

    def _simulate_layer_scalar(self, layer: AttentionWorkload) -> CycleSimResult:
        """Reference event loop: one :class:`Timeline` acquire per event."""
        cfg = self.config
        k_col_bytes, tensor_bytes, q_stream = self._layer_geometry(layer)

        denser_jobs, sparser_jobs = self._build_jobs(layer)
        denser_macs = sum(j.products for j in denser_jobs) * layer.head_dim
        sparser_macs = sum(j.products for j in sparser_jobs) * layer.head_dim
        alloc = allocate_mac_lines(cfg.num_mac_lines, denser_macs, sparser_macs)

        denser = EngineSchedule("denser", max(alloc.denser_lines, 1),
                                cfg.macs_per_line, denser_jobs)
        sparser = EngineSchedule("sparser", max(alloc.sparser_lines, 1),
                                 cfg.macs_per_line, sparser_jobs)
        dram = Timeline("dram")
        softmax = Timeline("softmax")

        dram.acquire(0.0, self._service(q_stream, tag="q-stream"))

        t_denser = self._run_engine(denser, dram, softmax, layer.head_dim)
        t_sparser = self._run_engine(sparser, dram, softmax, layer.head_dim)
        sddmm_done = max(t_denser, t_sparser, softmax.free_at)

        # SpMM phase: output-stationary on the full array; V streams and the
        # engines' lines are reunited.
        spmm_products = layer.total_nnz
        spmm_compute = (
            ceil(spmm_products / cfg.num_mac_lines)
            * ceil(layer.head_dim / cfg.macs_per_line)
        )
        v_bytes = 2 * tensor_bytes
        _, v_done = dram.acquire(
            sddmm_done, self._service(v_bytes, tag="v-stream")
        )
        spmm_done = max(sddmm_done + spmm_compute, v_done)

        denser_busy = sum(
            denser.compute_cycles(j, layer.head_dim) for j in denser_jobs
        )
        sparser_busy = sum(
            sparser.compute_cycles(j, layer.head_dim) for j in sparser_jobs
        )
        return CycleSimResult(
            makespan=spmm_done,
            sddmm_makespan=sddmm_done,
            spmm_makespan=spmm_done - sddmm_done,
            denser_busy=denser_busy,
            sparser_busy=sparser_busy,
            dram_busy=dram.busy,
            softmax_busy=softmax.busy,
            jobs_executed=len(denser_jobs) + len(sparser_jobs) + 2,
        )

    def _simulate_layer_vectorized(self, layer: AttentionWorkload) -> CycleSimResult:
        """Scan scheduler: the same schedule as array pipelines.

        Event order matches the scalar loop exactly: the Q stream holds the
        DRAM channel first, then the denser engine's column loads, then the
        sparser engine's, then the V stream; softmax requests arrive in
        engine completion order.
        """
        cfg = self.config
        head_dim = layer.head_dim

        denser_products, sparser_products = self._column_products(layer)
        n_d, n_s = denser_products.size, sparser_products.size
        d_lines, s_lines = self._layer_alloc(layer)

        # Integer durations (exact doubles): ceil-divisions in int64.
        per_wave = ceil(head_dim / cfg.macs_per_line)
        d_cycles = (-(-denser_products // d_lines) * per_wave).astype(np.float64)
        s_cycles = (-(-sparser_products // s_lines) * per_wave).astype(np.float64)
        lanes = cfg.softmax_lanes
        sm_d = (-(-denser_products // lanes)).astype(np.float64)
        sm_s = (-(-sparser_products // lanes)).astype(np.float64)

        # DRAM channel: q-stream, then one identical K-column load per job.
        q_service, s_col, v_service = self._layer_services(layer)
        load_done_d = q_service + s_col * np.arange(1, n_d + 1)
        load_done_s = (q_service + s_col * n_d
                       + s_col * np.arange(1, n_s + 1))

        # Double-buffered compute on each engine, then the shared softmax
        # queue (denser's requests precede sparser's, as in the event loop).
        free_d = _queue_scan(load_done_d, d_cycles)
        free_s = _queue_scan(load_done_s, s_cycles)
        t_denser = float(free_d[-1]) if n_d else 0.0
        t_sparser = float(free_s[-1]) if n_s else 0.0
        sm_after_d = _queue_scan(free_d, sm_d)
        sm_free = float(sm_after_d[-1]) if n_d else 0.0
        sm_after_s = _queue_scan(free_s, sm_s, init=sm_free)
        if n_s:
            sm_free = float(sm_after_s[-1])
        sddmm_done = max(t_denser, t_sparser, sm_free)

        spmm_products = layer.total_nnz
        spmm_compute = (
            ceil(spmm_products / cfg.num_mac_lines)
            * ceil(head_dim / cfg.macs_per_line)
        )
        dram_free = q_service + s_col * (n_d + n_s)
        v_done = max(sddmm_done, dram_free) + v_service
        spmm_done = max(sddmm_done + spmm_compute, v_done)

        return CycleSimResult(
            makespan=spmm_done,
            sddmm_makespan=sddmm_done,
            spmm_makespan=spmm_done - sddmm_done,
            denser_busy=float(d_cycles.sum()),
            sparser_busy=float(s_cycles.sum()),
            dram_busy=q_service + s_col * (n_d + n_s) + v_service,
            softmax_busy=float(sm_d.sum() + sm_s.sum()),
            jobs_executed=n_d + n_s + 2,
        )

    # Conform to the :mod:`repro.sim` per-layer naming.
    simulate_attention_layer = simulate_layer

    def simulate_attention(self, model) -> CycleSimResult:
        """Simulate a whole model's attention stack.

        Accepts a :class:`~repro.hw.workload.ModelWorkload` or any sequence
        of :class:`~repro.hw.workload.AttentionWorkload` layers.  With the
        vectorized engine, all layers run as ONE batched 2-D max-plus scan
        (see :meth:`_simulate_attention_batched`); the scalar engine loops
        layer by layer.  Either way the result's ``per_layer`` tuple holds
        the single-layer breakdowns and the totals are their field sums —
        the two engines agree bit-for-bit.
        """
        if isinstance(model, ModelWorkload):
            layers = list(model.attention_layers)
        else:
            layers = list(model)
        if not layers:
            raise ValueError("no attention layers to simulate")
        if self.engine == "scalar":
            return merge_cycle_results(
                self._simulate_layer_scalar(layer) for layer in layers
            )
        return self._simulate_attention_batched(layers)

    def _simulate_attention_batched(self, layers) -> CycleSimResult:
        """All layers as one (layer × job) array pipeline.

        Per-layer job streams are padded into 2-D matrices whose rows are
        the layers; running every scan along ``axis=1`` restarts the
        max-plus recurrences at each row boundary, which IS the per-layer
        reset semantics of the layer loop.  Padding uses zero durations and
        ``-inf`` request times, so padded slots never influence a row's
        event algebra, and all real values are produced by the exact same
        IEEE operations as the single-layer scans — whole-model results
        therefore match the per-layer loop bit for bit.
        """
        cfg = self.config
        L = len(layers)
        lanes = cfg.softmax_lanes

        # Per-layer scalar geometry (identical expressions to the
        # single-layer path; cheap Python over L layers, with the service
        # times and line allocations memoized per (workload, config)).
        q_service = np.empty(L)
        s_col = np.empty(L)
        v_service = np.empty(L)
        per_wave = np.empty(L, dtype=np.int64)
        d_lines = np.empty(L, dtype=np.int64)
        s_lines = np.empty(L, dtype=np.int64)
        spmm_compute = np.empty(L, dtype=np.int64)
        products_d, products_s = [], []
        for i, layer in enumerate(layers):
            head_dim = layer.head_dim
            q_service[i], s_col[i], v_service[i] = self._layer_services(layer)
            d_prod, s_prod = self._column_products(layer)
            products_d.append(d_prod)
            products_s.append(s_prod)
            d_lines[i], s_lines[i] = self._layer_alloc(layer)
            per_wave[i] = ceil(head_dim / cfg.macs_per_line)
            spmm_compute[i] = (
                ceil(layer.total_nnz / cfg.num_mac_lines)
                * ceil(head_dim / cfg.macs_per_line)
            )

        pad_d, n_d = _pad_rows(products_d)
        pad_s, n_s = _pad_rows(products_s)

        # Integer durations (exact doubles), zero in the padded slots.
        d_cycles = (-(-pad_d // d_lines[:, None]) * per_wave[:, None]
                    ).astype(np.float64)
        s_cycles = (-(-pad_s // s_lines[:, None]) * per_wave[:, None]
                    ).astype(np.float64)
        sm_d = (-(-pad_d // lanes)).astype(np.float64)
        sm_s = (-(-pad_s // lanes)).astype(np.float64)

        # DRAM channel per layer: q-stream, denser K loads, sparser K loads.
        load_done_d = _masked_load_times(q_service, s_col, n_d, pad_d.shape[1])
        base_s = q_service + s_col * n_d
        load_done_s = _masked_load_times(base_s, s_col, n_s, pad_s.shape[1])

        # Double-buffered compute per engine, then the shared per-layer
        # softmax queue: denser requests first, sparser ones queued behind
        # the denser finish (a layer with no sparser jobs keeps it).
        zeros = np.zeros((L, 1))
        free_d = _queue_scan_rows(load_done_d, d_cycles, zeros)
        free_s = _queue_scan_rows(load_done_s, s_cycles, zeros)
        t_denser = _row_finals(free_d, n_d)
        t_sparser = _row_finals(free_s, n_s)
        sm_after_d = _queue_scan_rows(free_d, sm_d, zeros)
        sm_free_d = _row_finals(sm_after_d, n_d)
        sm_after_s = _queue_scan_rows(free_s, sm_s, sm_free_d[:, None])
        sm_free = np.where(n_s > 0, _row_finals(sm_after_s, n_s), sm_free_d)
        sddmm_done = np.maximum(np.maximum(t_denser, t_sparser), sm_free)

        dram_free = q_service + s_col * (n_d + n_s)
        v_done = np.maximum(sddmm_done, dram_free) + v_service
        spmm_done = np.maximum(sddmm_done + spmm_compute, v_done)

        denser_busy = d_cycles.sum(axis=1)
        sparser_busy = s_cycles.sum(axis=1)
        dram_busy = q_service + s_col * (n_d + n_s) + v_service
        softmax_busy = sm_d.sum(axis=1) + sm_s.sum(axis=1)

        return merge_cycle_results(
            CycleSimResult(
                makespan=float(spmm_done[i]),
                sddmm_makespan=float(sddmm_done[i]),
                spmm_makespan=float(spmm_done[i] - sddmm_done[i]),
                denser_busy=float(denser_busy[i]),
                sparser_busy=float(sparser_busy[i]),
                dram_busy=float(dram_busy[i]),
                softmax_busy=float(softmax_busy[i]),
                jobs_executed=int(n_d[i] + n_s[i]) + 2,
            )
            for i in range(L)
        )

    # ------------------------------------------------------------------
    # Grid-batched DSE walk: a (points × rows × jobs) max-plus scan
    # ------------------------------------------------------------------
    #: Design-point knobs :meth:`simulate_attention_grid` accepts as
    #: per-point columns; anything else comes from this simulator.
    _GRID_COLUMNS = ("num_mac_lines", "dram_bandwidth_bytes_per_s",
                     "act_buffer_bytes", "use_ae", "ae_compression")

    def _resolve_grid_columns(self, columns):
        """Normalise per-point column arrays for the grid walk.

        Mirrors ``ViTCoDAccelerator._resolve_grid_columns``: ``columns``
        maps a subset of :data:`_GRID_COLUMNS` to length-``P`` arrays
        (already converted the way the design point would be built: ints
        for MAC lines and buffer bytes, bytes/s for bandwidth); missing
        knobs broadcast this simulator's own value.  Values are
        validated like ``__init__`` — a chunk holding one invalid point
        raises for the whole batch (the DSE engine then falls back to
        per-point scoring, which attributes the failure).  A bandwidth
        column overrides the DRAM channel rate exactly as a per-point
        config clone would (``bandwidth / frequency``); without one the
        channel keeps this simulator's own ``dram.bytes_per_cycle``.
        """
        unknown = set(columns) - set(self._GRID_COLUMNS)
        if unknown:
            raise ValueError(
                f"unknown design-point column(s) {sorted(unknown)}; "
                f"choose from {list(self._GRID_COLUMNS)}"
            )
        lengths = {len(np.atleast_1d(v)) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"design-point columns disagree on length: {sorted(lengths)}"
            )
        points = lengths.pop() if lengths else 1
        cfg = self.config

        def column(name, default, dtype):
            if name in columns:
                return np.asarray(columns[name], dtype=dtype)
            return np.full(points, default, dtype=dtype)

        lines = column("num_mac_lines", cfg.num_mac_lines, np.int64)
        bandwidth = column("dram_bandwidth_bytes_per_s",
                           cfg.dram_bandwidth_bytes_per_s, np.float64)
        act_buffer = column("act_buffer_bytes", cfg.act_buffer_bytes,
                            np.int64)
        use_ae = column("use_ae", self.use_ae, bool)
        ae = column("ae_compression", self.ae_compression, np.float64)
        if not ((0.0 < ae) & (ae <= 1.0)).all():
            raise ValueError("ae_compression must be in (0, 1]")
        if "dram_bandwidth_bytes_per_s" in columns:
            bpc = bandwidth / cfg.frequency_hz
        else:
            bpc = np.full(points, self.dram.bytes_per_cycle)
        return {
            "points": points,
            "lines": lines,
            "bpc": bpc,
            "act_buffer": act_buffer,
            "ratio": np.where(use_ae, ae, 1.0),
        }

    def _grid_service(self, nbytes, bpc):
        """Vectorized :meth:`_service` for sequential DRAM requests.

        The same op sequence as :meth:`DramModel.service_cycles` for a
        sequential request followed by :func:`_quantize` — burst-aligned
        bytes over the channel rate, snapped to the event grid, zero
        bytes costing zero — elementwise over a (points × layers)
        broadcast with per-point ``bpc`` channel rates.
        """
        burst = self.dram.burst_bytes
        bursts = np.ceil(nbytes / burst)
        cycles = np.round(bursts * burst / bpc * _TIME_SCALE) / _TIME_SCALE
        return np.where(nbytes == 0, 0.0, cycles)

    def _grid_geometry(self, layers):
        """Config-independent geometry of the grid walk, built once per
        :meth:`simulate_attention_grid` call.

        Job widths are a property of the workload alone — design points
        change event *durations*, never the job list — so the width-band
        row grouping, the padded product matrices, their padding masks,
        and the softmax durations (the lane count is never swept) are
        shared by every design point in the batch.  The per-layer job
        products themselves come memoized off the workload
        (:meth:`_column_products`), so repeated batches on a cached
        workload skip the per-head walks.
        """
        cfg = self.config
        lanes = cfg.softmax_lanes
        b = cfg.bytes_per_element
        L = len(layers)

        per_wave = np.empty(L, dtype=np.int64)
        n_d = np.empty(L, dtype=np.int64)
        n_s = np.empty(L, dtype=np.int64)
        denser_macs = np.empty(L, dtype=np.int64)
        sparser_macs = np.empty(L, dtype=np.int64)
        tensor_bytes = np.empty(L, dtype=np.int64)
        k_bytes_full = np.empty(L, dtype=np.int64)
        total_nnz = np.empty(L, dtype=np.int64)
        softmax_busy = 0.0
        products, softmax_cols = [], []
        for i, layer in enumerate(layers):
            head_dim = layer.head_dim
            d_prod, s_prod = self._column_products(layer)
            products.append((d_prod, s_prod))
            per_wave[i] = ceil(head_dim / cfg.macs_per_line)
            n_d[i], n_s[i] = d_prod.size, s_prod.size
            denser_macs[i] = int(d_prod.sum()) * head_dim
            sparser_macs[i] = int(s_prod.sum()) * head_dim
            tensor_bytes[i] = layer.num_tokens * layer.embed_dim * b
            k_bytes_full[i] = head_dim * b
            total_nnz[i] = layer.total_nnz
            sm_d = (-(-d_prod // lanes)).astype(np.float64)
            sm_s = (-(-s_prod // lanes)).astype(np.float64)
            softmax_cols.append((sm_d, sm_s))
            softmax_busy += float(sm_d.sum() + sm_s.sum())

        # A layer's softmax unit is ONE FCFS queue serving all denser
        # compute completions before the sparser ones; only its FINAL
        # state is ever consumed (its busy time is config-independent).
        # The final of a max-plus queue is ``S_W + max(0, max_j(r_j -
        # S_excl_j))`` with ``S = cumsum(durations)`` — a plain max
        # reduce, no scan — so per layer we keep the total ``S_W`` and
        # per compute row the concatenated-queue exclusive cumsums
        # (denser rows: ``S_excl``; sparser rows: the full denser sum
        # plus their own ``S_excl``), ``+inf`` in padded slots so padding
        # can never win the max.  All values live on the 2**-20 grid, so
        # regrouping the concatenated queue this way is exact (every
        # association of the event algebra gives the same doubles).
        sm_total = np.empty(L)
        sm_denser_total = np.empty(L)
        for i, (sm_d, sm_s) in enumerate(softmax_cols):
            sm_denser_total[i] = sm_d.sum()
            sm_total[i] = sm_denser_total[i] + sm_s.sum()

        # Compute rows: 2L independent max-plus resets (denser engine of
        # layer i is row i, sparser engine is row L + i), width-banded so
        # no row pads to a far-wider engine's job count.
        compute_bands = []
        for rows in _width_bands(np.concatenate([n_d, n_s])):
            is_d = rows < L
            layer_idx = np.where(is_d, rows, rows - L)
            pad, lengths = _pad_rows([
                products[r][0] if r < L else products[r - L][1]
                for r in rows.tolist()
            ])
            sm_off = np.full(pad.shape, np.inf)
            for j, r in enumerate(rows.tolist()):
                sm = softmax_cols[r][0] if r < L else softmax_cols[r - L][1]
                excl = np.cumsum(sm) - sm
                if r >= L:
                    excl = sm_denser_total[r - L] + excl
                sm_off[j, : sm.size] = excl
            compute_bands.append({
                "layer": layer_idx,
                "is_d": is_d,
                "pad": pad,
                "lengths": lengths,
                "mask": np.arange(pad.shape[1])[None, :] >= lengths[:, None],
                "sm_off": sm_off,
            })

        cells = sum(band["pad"].size for band in compute_bands)
        return {
            "layers": L,
            "per_wave": per_wave,
            "n_d": n_d,
            "n_s": n_s,
            "denser_macs": denser_macs,
            "sparser_macs": sparser_macs,
            "tensor_bytes": tensor_bytes,
            "k_bytes_full": k_bytes_full,
            "total_nnz": total_nnz,
            "softmax_busy": softmax_busy,
            "sm_total": sm_total,
            "compute_bands": compute_bands,
            "cells": cells,
            "jobs_executed": int(n_d.sum() + n_s.sum()) + 2 * L,
        }

    def simulate_attention_grid(self, model, columns):
        """Simulate ``P`` design points' whole attention stacks at once.

        The grid-batched DSE path of :meth:`simulate_attention`: swept
        hardware knobs arrive as per-point columns (see
        :meth:`_resolve_grid_columns`) instead of ``P`` simulator
        instances, and every (point, layer, job) event is scheduled by
        the same max-plus scans broadcast over a leading design-point
        axis — mirroring
        :meth:`~repro.hw.accelerator.ViTCoDAccelerator.simulate_attention_grid`
        one abstraction level down, at event granularity.

        Returns a dict of length-``P`` float64 arrays — ``makespan``,
        ``sddmm_makespan``, ``spmm_makespan``, ``denser_busy``,
        ``sparser_busy``, ``dram_busy``, ``softmax_busy`` — plus the
        config-independent scalar ``jobs_executed``.  Element ``i`` of
        every array is **bit-for-bit** the corresponding
        :class:`CycleSimResult` total of a per-point
        :meth:`simulate_attention` call at design point ``i``: all event
        durations live on the ``2**-20``-cycle grid, so every sum and
        max here is exact and association-free, and every non-grid
        expression (byte counts, tile counts, service times) repeats the
        per-point path's IEEE ops operand for operand.

        Rows are grouped into width-band sub-batches
        (:func:`_width_bands`) so neither engine's rows pad to the
        other's width.  The design-point axis is walked grouped by the
        (MAC lines, bytes/cycle, AE ratio) triple — the scan tables
        those columns determine are shared across each group
        (:meth:`_grid_group_tables`) — in sub-batches sized to
        :data:`_GRID_CELL_BUDGET` cells so peak memory stays bounded
        regardless of batch size.
        """
        if isinstance(model, ModelWorkload):
            layers = list(model.attention_layers)
        else:
            layers = list(model)
        if not layers:
            raise ValueError("no attention layers to simulate")
        if type(self.dram) is not DramModel:
            raise ValueError(
                "simulate_attention_grid requires a plain DramModel: a "
                "custom subclass may carry per-request state the batched "
                "walk cannot replay (simulate per point instead)"
            )
        cols = self._resolve_grid_columns(columns)
        geometry = self._grid_geometry(layers)
        points = cols["points"]
        totals = {
            name: np.empty(points)
            for name in ("makespan", "sddmm_makespan", "spmm_makespan",
                         "denser_busy", "sparser_busy", "dram_busy",
                         "softmax_busy")
        }

        # Engine MAC-line split per (point, layer); the batched allocator
        # is elementwise-exact against the scalar one, floored at 1 as
        # the schedulers require.  Lines below the allocator's minimum
        # raise here for the whole batch, before any totals are written.
        d_lines, s_lines = allocate_mac_lines_batched(
            cols["lines"][:, None], geometry["denser_macs"],
            geometry["sparser_macs"]
        )
        alloc = {
            "d_lines": np.maximum(d_lines, 1),
            "s_lines": np.maximum(s_lines, 1),
        }

        # Points sharing a (MAC lines, bytes/cycle, AE ratio) triple
        # share their entire scan geometry -- durations, cumsums, and
        # the running max of the arithmetic request ladder -- so the
        # point axis is walked one such group at a time: the heavy
        # tables collapse from the point axis onto the handful of
        # distinct column triples (_grid_group_tables), and the
        # full-size per-point arrays only ever see elementwise SIMD
        # passes (_grid_walk_group).  Totals are scattered straight back
        # through the original indices, so the ordering is unobservable.
        order = np.lexsort(
            (cols["act_buffer"], cols["ratio"], cols["bpc"], cols["lines"])
        )
        key = np.stack([cols["lines"][order], cols["bpc"][order],
                        cols["ratio"][order]])
        cuts = np.flatnonzero(np.any(key[:, 1:] != key[:, :-1], axis=0)) + 1
        starts = np.concatenate(([0], cuts))
        stops = np.concatenate((cuts, [points]))
        step = max(1, _GRID_CELL_BUDGET // max(geometry["cells"], 1))
        line_cache = {}
        for ga, gb in zip(starts.tolist(), stops.tolist()):
            shared = self._grid_group_tables(
                geometry, cols, alloc, order[ga], line_cache
            )
            for start in range(ga, gb, step):
                idx = order[start:min(start + step, gb)]
                self._grid_walk_group(geometry, cols, shared, idx, totals)
        totals["jobs_executed"] = geometry["jobs_executed"]
        return totals

    def _grid_group_tables(self, geometry, cols, alloc, rep, line_cache):
        """Scan tables shared by one (MAC lines, bytes/cycle, AE) group.

        ``rep`` indexes any design point of the group (all points of a
        group agree on every column the tables read).  Compute durations
        depend only on the MAC-line column, so the duration tables --
        per band: the inclusive cumsum ``total``, its exclusive form
        ``offset``, per-row ``busy`` sums, the ``last`` cumsum column,
        and the softmax slack ``addend`` -- are cached per distinct line
        count across groups.

        The per-group work is the request-ladder running max: requests
        are *arithmetic* in the job index (``base + step * j``, the
        double-buffered K-column loads), so the scanned slack splits as
        ``base + (step * j - offset_j)`` and its running max as
        ``base + M_j`` with ``M = maximum.accumulate(step * j - offset)``
        -- a pure function of this group's columns, independent of the
        point axis.  Every operand lives on the ``2**-20`` grid with
        magnitude far below ``2**32``, so both sums are exact and the
        regrouping is bitwise-neutral; padded slots keep their ``-inf``
        request times through ``M``, exactly as in the direct scan.
        """
        g = geometry
        lines_key = int(cols["lines"][rep])
        tables = line_cache.get(lines_key)
        if tables is None:
            tables = []
            d_row = alloc["d_lines"][rep]
            s_row = alloc["s_lines"][rep]
            for band in g["compute_bands"]:
                layer_idx = band["layer"]
                eng_lines = np.where(
                    band["is_d"], d_row[layer_idx], s_row[layer_idx]
                )
                durations = (
                    -(-band["pad"] // eng_lines[:, None])
                    * g["per_wave"][layer_idx][:, None]
                ).astype(np.float64)
                total = np.cumsum(durations, axis=-1)
                tables.append({
                    "total": total,
                    "offset": total - durations,
                    "busy": durations.sum(axis=-1),
                    "last": total[:, -1],
                    "addend": total - band["sm_off"],
                })
            line_cache[lines_key] = tables

        # The ladder step is the sparser K-column service time, computed
        # from this group's scalar bandwidth/ratio with the exact
        # per-point expressions (IEEE ops are elementwise, so scalar and
        # column evaluation agree bitwise).
        bpc = cols["bpc"][rep]
        ratio = cols["ratio"][rep]
        step_vec = self._grid_service(np.trunc(g["k_bytes_full"] * ratio), bpc)
        bands = []
        for band, t in zip(g["compute_bands"], tables):
            width = band["pad"].shape[1]
            h = step_vec[band["layer"]][:, None] * np.arange(1, width + 1)
            h -= t["offset"]
            h[band["mask"]] = -np.inf
            bands.append({**t, "M": np.maximum.accumulate(h, axis=-1)})
        return bands

    def _grid_walk_group(self, geometry, cols, shared, idx, totals):
        """One design-point sub-batch within a (lines, bpc, ratio) group.

        Every expression mirrors :meth:`_simulate_attention_batched`
        (and through it the per-point scans) with a leading point axis;
        comments mark the correspondence.  The compute scans themselves
        are prefactored into ``shared`` (see :meth:`_grid_group_tables`):
        a row's job completions are ``total_j + max(base + M_j, 0)``,
        so the per-point work is broadcast adds and maxima only.

        The softmax queues need no scan at all: only each queue's
        *final* completion is consumed downstream, and unrolling the
        FCFS recurrence gives ``S_total + max(0, max_j(r_j - S_excl_j))``
        -- a plain max-reduce.  With ``r_j = total_j + max0_j`` the
        reduced term is ``max0_j + (total_j - S_excl_j)``, whose second
        summand is the precomputed ``addend``; denser requests precede
        sparser ones exactly as in the event loop (the sparser rows'
        ``S_excl`` starts past the denser jobs' total softmax time), and
        the concatenated queue equals the whole-model path's carried-init
        scans bit for bit (all values live on the ``2**-20`` grid, so
        every association is exact).  Padded slots carry
        ``addend = -inf`` and layers without a denser (or sparser) row
        keep that side's running max at ``-inf``, reproducing the
        whole-model path's empty-row branches.
        """
        g = geometry
        L = g["layers"]
        p = idx.size
        bpc = cols["bpc"][idx][:, None]
        act_buffer = cols["act_buffer"][idx][:, None]
        ratio = cols["ratio"][idx][:, None]
        lines = cols["lines"][idx][:, None]

        # Byte/tile geometry and quantized DRAM service times: the exact
        # `_layer_geometry` / `_build_layer_services` expressions with
        # ratio/buffer/bandwidth as (points, 1) columns.
        k_col_bytes = np.trunc(g["k_bytes_full"] * ratio)
        k_tiles = np.maximum(
            1.0, np.ceil(g["tensor_bytes"] * ratio / (act_buffer / 2))
        )
        q_stream = np.trunc(g["tensor_bytes"] * ratio * k_tiles)
        q_service = self._grid_service(q_stream, bpc)
        s_col = self._grid_service(k_col_bytes, bpc)
        v_service = self._grid_service(2 * g["tensor_bytes"], bpc)

        spmm_compute = np.ceil(g["total_nnz"] / lines) * g["per_wave"]

        t_denser = np.zeros((p, L))
        t_sparser = np.zeros((p, L))
        denser_busy = np.zeros((p, L))
        sparser_busy = np.zeros((p, L))
        md = np.full((p, L), -np.inf)
        ms = np.full((p, L), -np.inf)
        for band, t in zip(g["compute_bands"], shared):
            layer_idx = band["layer"]
            is_d = band["is_d"]
            base = np.where(
                is_d,
                q_service[:, layer_idx],
                q_service[:, layer_idx]
                + s_col[:, layer_idx] * g["n_d"][layer_idx],
            )
            buf = base[:, :, None] + t["M"]
            np.maximum(buf, 0.0, out=buf)
            finish = buf[:, :, -1] + t["last"]
            d_rows = np.flatnonzero(is_d)
            s_rows = np.flatnonzero(~is_d)
            t_denser[:, layer_idx[d_rows]] = finish[:, d_rows]
            t_sparser[:, layer_idx[s_rows]] = finish[:, s_rows]
            denser_busy[:, layer_idx[d_rows]] = t["busy"][d_rows]
            sparser_busy[:, layer_idx[s_rows]] = t["busy"][s_rows]
            buf += t["addend"]
            band_max = buf.max(axis=-1)
            md[:, layer_idx[d_rows]] = band_max[:, d_rows]
            ms[:, layer_idx[s_rows]] = band_max[:, s_rows]
        sm_free = g["sm_total"] + np.maximum(np.maximum(md, ms), 0.0)

        sddmm_done = np.maximum(np.maximum(t_denser, t_sparser), sm_free)
        dram_free = q_service + s_col * (g["n_d"] + g["n_s"])
        v_done = np.maximum(sddmm_done, dram_free) + v_service
        spmm_done = np.maximum(sddmm_done + spmm_compute, v_done)
        dram_busy = q_service + s_col * (g["n_d"] + g["n_s"]) + v_service

        # Whole-model totals: every summand lives on the 2**-20 grid, so
        # the axis sums equal the per-layer merge fold bit for bit.
        totals["makespan"][idx] = spmm_done.sum(axis=1)
        totals["sddmm_makespan"][idx] = sddmm_done.sum(axis=1)
        totals["spmm_makespan"][idx] = (spmm_done - sddmm_done).sum(axis=1)
        totals["denser_busy"][idx] = denser_busy.sum(axis=1)
        totals["sparser_busy"][idx] = sparser_busy.sum(axis=1)
        totals["dram_busy"][idx] = dram_busy.sum(axis=1)
        totals["softmax_busy"][idx] = g["softmax_busy"]
