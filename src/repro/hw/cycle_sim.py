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

Two engines implement the same schedule:

* ``engine="vectorized"`` (default) is one array engine, the grid walk of
  :meth:`CycleAccurateSimulator.simulate_attention_grid`.  It expresses
  the per-column FCFS queue recurrences as numpy scans — the
  double-buffered compute recurrence
  ``compute_free[i] = max(compute_free[i-1], load_done[i]) + cycles[i]``
  is a max-plus scan, computed as
  ``cumsum(cycles) + maximum.accumulate(load_done - exclusive_cumsum(cycles))``
  — over (design points × engine rows × jobs) arrays, where each layer's
  two engines are rows.  A DSE chunk of ``P`` design points is one walk;
  :meth:`~CycleAccurateSimulator.simulate_attention` and
  :meth:`~CycleAccurateSimulator.simulate_layer` are the same walk at the
  simulator's own design point (``P = 1``), read out per layer;
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


#: The float fields of :class:`CycleSimResult`, in field order (the grid
#: walk reports one ``(points, layers)`` array per name).
_RESULT_FIELDS = ("makespan", "sddmm_makespan", "spmm_makespan",
                  "denser_busy", "sparser_busy", "dram_busy", "softmax_busy")


def _attention_layers(model):
    """The attention layers of a :class:`ModelWorkload` or a layer
    sequence, as a non-empty list."""
    if isinstance(model, ModelWorkload):
        model = model.attention_layers
    layers = list(model)
    if not layers:
        raise ValueError("no attention layers to simulate")
    return layers


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
    — no row is ever padded to the width of a far-wider band.  The
    denser engine's rows are ~15× narrower than the sparser engine's, so
    folding them into one matrix would waste most of its cells.  Zero-width
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
    engine:
        ``"vectorized"`` (default) runs the grid walk of
        :meth:`simulate_attention_grid` at this one design point, every
        layer at once.  ``"scalar"`` runs the reference per-job event
        loop, layer by layer.  Both produce identical
        :class:`CycleSimResult` values.

    The DRAM channel is always a plain :class:`DramModel` at the
    config's ``bytes_per_cycle``.
    """

    _ENGINES = ("vectorized", "scalar")

    name = "CycleSim"

    def __init__(self, config: Optional[HardwareConfig] = None, use_ae=True,
                 ae_compression=0.5, engine="vectorized"):
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
        self.dram = DramModel(bytes_per_cycle=self.config.bytes_per_cycle)

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

    def simulate_layer(self, layer: AttentionWorkload) -> CycleSimResult:
        if self.engine == "scalar":
            return self._simulate_layer_scalar(layer)
        return self._simulate_layers([layer])[0]

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

    # Conform to the :mod:`repro.sim` per-layer naming.
    simulate_attention_layer = simulate_layer

    def simulate_attention(self, model) -> CycleSimResult:
        """Simulate a whole model's attention stack.

        Accepts a :class:`~repro.hw.workload.ModelWorkload` or any sequence
        of :class:`~repro.hw.workload.AttentionWorkload` layers.  The
        vectorized engine runs the grid walk at this simulator's own
        design point (see :meth:`_simulate_layers`); the scalar engine
        loops layer by layer.  Either way the result's ``per_layer`` tuple
        holds the single-layer breakdowns and the totals are their field
        sums — the two engines agree bit-for-bit.
        """
        if self.engine == "scalar":
            return merge_cycle_results(
                self._simulate_layer_scalar(layer)
                for layer in _attention_layers(model)
            )
        return merge_cycle_results(self._simulate_layers(model))

    def _simulate_layers(self, model):
        """One :class:`CycleSimResult` per layer from row 0 of a one-point
        (empty-columns) grid walk."""
        per_layer, geometry = self._grid_walk(model, {})
        fields = [per_layer[name][0].tolist() for name in _RESULT_FIELDS]
        jobs = (geometry["n_d"] + geometry["n_s"] + 2).tolist()
        return [CycleSimResult(*row) for row in zip(*fields, jobs)]

    # ------------------------------------------------------------------
    # The grid walk: a (points × rows × jobs) max-plus scan
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

    #: Instance-memo slot of :meth:`_grid_geometry` on a
    #: :class:`~repro.hw.workload.ModelWorkload` (stripped from pickles,
    #: see ``ModelWorkload._CACHE_ATTRS``).
    _GEOMETRY_SLOT = "_cycle_grid_geometry"

    def _grid_geometry(self, model):
        """Config-independent geometry of the grid walk.

        Job widths are a property of the workload alone — design points
        change event *durations*, never the job list — so the width-band
        row grouping, the padded product matrices, their padding masks,
        and the softmax durations (the lane count is never swept) are
        shared by every design point of every walk on the workload.  A
        :class:`~repro.hw.workload.ModelWorkload` therefore memoizes the
        geometry on its instance, keyed by the only config fields it
        reads; a bare sequence of layers builds it fresh.
        """
        if not isinstance(model, ModelWorkload):
            return self._build_grid_geometry(_attention_layers(model))
        cfg = self.config
        key = (cfg.softmax_lanes, cfg.bytes_per_element, cfg.macs_per_line)
        return instance_memo(
            model, self._GEOMETRY_SLOT, key,
            lambda: self._build_grid_geometry(_attention_layers(model)),
        )

    def _build_grid_geometry(self, layers):
        """Build :meth:`_grid_geometry`.  The per-layer job products come
        memoized off each layer (:meth:`_column_products`)."""
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

        # A layer's softmax unit is ONE FCFS queue serving all denser
        # compute completions before the sparser ones; only its FINAL
        # state is ever consumed (its busy time, ``S_W``, is
        # config-independent).
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
            layer_idx = np.where(rows < L, rows, rows - L)
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
                "rows": rows,
                "layer": layer_idx,
                "per_wave": per_wave[layer_idx][:, None],
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
            "sm_total": sm_total,
            "compute_bands": compute_bands,
            "cells": cells,
            "jobs_executed": int(n_d.sum() + n_s.sum()) + 2 * L,
        }

    def simulate_attention_grid(self, model, columns):
        """Simulate ``P`` design points' whole attention stacks at once.

        The batched form of :meth:`simulate_attention` (which is this walk
        at ``P = 1``), and the DSE path: swept
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
        :meth:`simulate_attention` call at design point ``i``, with
        either engine: all event durations live on the ``2**-20``-cycle
        grid, so every sum and max here is exact and association-free,
        and every non-grid expression (byte counts, tile counts, service
        times) repeats the scalar event loop's IEEE ops operand for
        operand.

        Rows are grouped into width-band sub-batches
        (:func:`_width_bands`) so neither engine's rows pad to the
        other's width.  The design-point axis is walked grouped by the
        (MAC lines, bytes/cycle, AE ratio) triple — the scan tables
        those columns determine are shared across each group
        (:meth:`_grid_group_tables`) — in sub-batches sized to
        :data:`_GRID_CELL_BUDGET` cells so peak memory stays bounded
        regardless of batch size.
        """
        per_layer, geometry = self._grid_walk(model, columns)
        # Every summand lies on the 2**-20 grid, so the layer sums equal
        # the per-point merge fold bit for bit.
        totals = {name: values.sum(axis=1)
                  for name, values in per_layer.items()}
        totals["jobs_executed"] = geometry["jobs_executed"]
        return totals

    def _grid_walk(self, model, columns):
        """The grid walk behind :meth:`simulate_attention_grid` and the
        vectorized engine, before the layer sums.

        Returns ``(per_layer, geometry)``: ``per_layer`` maps each
        :data:`_RESULT_FIELDS` name to a ``(P, L)`` float64 array whose
        element ``[i, l]`` is layer ``l``'s single-layer result at design
        point ``i``.
        """
        cols = self._resolve_grid_columns(columns)
        geometry = self._grid_geometry(model)
        points = cols["points"]
        per_layer = {name: np.empty((points, geometry["layers"]))
                     for name in _RESULT_FIELDS}

        # Engine MAC lines per (point, compute row): the batched allocator
        # is elementwise-exact against the scalar one, floored at 1 as
        # the schedulers require.  Lines below the allocator's minimum
        # raise here for the whole batch, before any results are written.
        d_lines, s_lines = allocate_mac_lines_batched(
            cols["lines"][:, None], geometry["denser_macs"],
            geometry["sparser_macs"]
        )
        row_lines = np.maximum(np.concatenate([d_lines, s_lines], axis=1), 1)

        # Points sharing a (MAC lines, bytes/cycle, AE ratio) triple
        # share their entire scan geometry -- durations, cumsums, and
        # the running max of the arithmetic request ladder -- so the
        # point axis is walked one such group at a time: the heavy
        # tables collapse from the point axis onto the handful of
        # distinct column triples (_grid_group_tables), and the
        # full-size per-point arrays only ever see elementwise SIMD
        # passes (_grid_walk_group).  Results are scattered straight back
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
                geometry, cols, row_lines, order[ga], line_cache
            )
            for start in range(ga, gb, step):
                idx = order[start:min(start + step, gb)]
                self._grid_walk_group(geometry, cols, shared, idx,
                                      per_layer)
        return per_layer, geometry

    def _grid_group_tables(self, geometry, cols, row_lines, rep,
                           line_cache):
        """Tables shared by one (MAC lines, bytes/cycle, AE) group.

        Returns the per-band scan tables (``bands``) and the group's
        per-layer ``s_col``, ``v_service`` and ``spmm_compute``.
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
            for band in g["compute_bands"]:
                durations = (
                    -(-band["pad"] // row_lines[rep, band["rows"]][:, None])
                    * band["per_wave"]
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

        # The ladder step is the K-column service time.  It, the V-stream
        # service time and the SpMM compute time read only this group's
        # columns, so they are computed once per group from the scalar
        # lines/bandwidth/ratio with the exact per-point expressions
        # (`_layer_geometry`, `_service`, `_simulate_layer_scalar`; IEEE
        # ops are elementwise, so scalar and column evaluation agree
        # bitwise).
        bpc = cols["bpc"][rep]
        s_col = self._grid_service(
            np.trunc(g["k_bytes_full"] * cols["ratio"][rep]), bpc
        )
        bands = []
        for band, t in zip(g["compute_bands"], tables):
            width = band["pad"].shape[1]
            h = s_col[band["layer"]][:, None] * np.arange(1, width + 1)
            h -= t["offset"]
            h[band["mask"]] = -np.inf
            bands.append({**t, "M": np.maximum.accumulate(h, axis=-1)})
        return {
            "bands": bands,
            "s_col": s_col,
            "v_service": self._grid_service(2 * g["tensor_bytes"], bpc),
            "spmm_compute": (np.ceil(g["total_nnz"] / cols["lines"][rep])
                             * g["per_wave"]),
        }

    def _grid_walk_group(self, geometry, cols, shared, idx, per_layer):
        """One design-point sub-batch within a (lines, bpc, ratio) group.

        Every expression mirrors the event loop of
        :meth:`_simulate_layer_scalar` with leading (point, layer) axes;
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
        the regrouped queue equals the event loop's one softmax
        :class:`Timeline` bit for bit (all values live on the ``2**-20``
        grid, so every association is exact).  Padded slots carry
        ``addend = -inf`` and layers without a denser (or sparser) row
        keep that side's running max at ``-inf``, so an engine with no
        jobs adds no softmax requests, as in the event loop.
        """
        g = geometry
        L = g["layers"]
        p = idx.size
        bpc = cols["bpc"][idx][:, None]
        act_buffer = cols["act_buffer"][idx][:, None]
        ratio = cols["ratio"][idx][:, None]
        s_col = shared["s_col"]
        v_service = shared["v_service"]

        # The Q-stream's tile count reads the activation buffer, which
        # varies within a group: the exact `_layer_geometry` / `_service`
        # expressions with ratio/buffer/bandwidth as (points, 1) columns.
        k_tiles = np.maximum(
            1.0, np.ceil(g["tensor_bytes"] * ratio / (act_buffer / 2))
        )
        q_stream = np.trunc(g["tensor_bytes"] * ratio * k_tiles)
        q_service = self._grid_service(q_stream, bpc)

        # Per compute row (denser rows 0..L-1, sparser rows L..2L-1): the
        # DRAM time before the row's first K-column load is served (the
        # q-stream, plus the denser loads for a sparser row).
        base = np.concatenate([q_service, q_service + s_col * g["n_d"]],
                              axis=1)
        finish = np.zeros((p, 2 * L))
        busy = np.zeros((p, 2 * L))
        sm_max = np.full((p, 2 * L), -np.inf)
        for band, t in zip(g["compute_bands"], shared["bands"]):
            rows = band["rows"]
            buf = base[:, rows, None] + t["M"]
            np.maximum(buf, 0.0, out=buf)
            finish[:, rows] = buf[:, :, -1] + t["last"]
            busy[:, rows] = t["busy"]
            buf += t["addend"]
            sm_max[:, rows] = buf.max(axis=-1)
        sm_free = g["sm_total"] + np.maximum(
            np.maximum(sm_max[:, :L], sm_max[:, L:]), 0.0
        )

        sddmm_done = np.maximum(np.maximum(finish[:, :L], finish[:, L:]),
                                sm_free)
        dram_free = q_service + s_col * (g["n_d"] + g["n_s"])
        v_done = np.maximum(sddmm_done, dram_free) + v_service
        spmm_done = np.maximum(sddmm_done + shared["spmm_compute"], v_done)
        dram_busy = dram_free + v_service

        per_layer["makespan"][idx] = spmm_done
        per_layer["sddmm_makespan"][idx] = sddmm_done
        per_layer["spmm_makespan"][idx] = spmm_done - sddmm_done
        per_layer["denser_busy"][idx] = busy[:, :L]
        per_layer["sparser_busy"][idx] = busy[:, L:]
        per_layer["dram_busy"][idx] = dram_busy
        per_layer["softmax_busy"][idx] = g["sm_total"]
