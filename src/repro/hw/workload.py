"""Workload descriptions consumed by the accelerator and baseline simulators.

An :class:`AttentionWorkload` captures one attention layer's polarized
sparsity structure (per-head global-token counts and non-zero counts) plus
shape metadata; a :class:`ModelWorkload` bundles all layers of a model with
its dense (QKV projection / MLP) GEMMs for end-to-end simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..formats.sparse import CSCMatrix, COOMatrix
from ..models.config import ModelConfig
from ..sparsity.split_conquer import SplitConquerResult, split_and_conquer
from ..sparsity.patterns import synthetic_vit_attention

__all__ = ["HeadWorkload", "HeadStatArrays", "AttentionWorkload",
           "GemmWorkload", "ModelWorkload",
           "attention_workload_from_masks", "dense_attention_workload",
           "synthetic_attention_workload", "model_workload",
           "split_remainder"]


def _state_without_caches(obj):
    """Pickle state of a workload minus its ``_CACHE_ATTRS``."""
    state = dict(obj.__dict__)
    for attr in obj._CACHE_ATTRS:
        state.pop(attr, None)
    return state


def _memoized(obj, attr, builder):
    """Cache ``builder()`` on a frozen dataclass instance.

    The workload dataclasses are frozen (value semantics, shareable across
    threads and the process-wide :mod:`repro.perf` cache), but their derived
    geometry arrays are pure functions of the fields, so stashing them in
    ``__dict__`` via ``object.__setattr__`` preserves immutability of the
    *fields* while letting every simulator share one set of arrays.
    """
    try:
        return obj.__dict__[attr]
    except KeyError:
        value = builder()
        object.__setattr__(obj, attr, value)
        return value


def split_remainder(nnz, cols):
    """Spread ``nnz`` products over ``cols`` columns without losing the
    remainder: the first ``nnz % cols`` columns carry one extra product.

    The shared mean-density fallback for heads lacking per-column counts —
    both the cycle simulator's job builders and :meth:`AttentionWorkload.column_cv`
    must distribute identically or the load-imbalance metric diverges from
    the simulated job stream.
    """
    if cols <= 0:
        return np.zeros(0, dtype=np.int64)
    per, rem = divmod(int(nnz), cols)
    counts = np.full(cols, per, dtype=np.int64)
    counts[:rem] += 1
    return counts


@dataclass(frozen=True)
class HeadWorkload:
    """Polarized sparsity statistics for one attention head.

    ``sparser_locality`` is the fraction of sparser-region non-zeros lying in
    a narrow band around the diagonal after reordering: those enjoy streaming
    Q locality (adjacent columns need adjacent Q rows), while the remainder
    triggers scattered per-token Q fetches from DRAM.
    """

    num_tokens: int
    head_dim: int
    num_global_tokens: int
    denser_nnz: int
    sparser_nnz: int
    sparser_index_bytes: int
    sparser_locality: float = 1.0
    sparser_column_nnz: np.ndarray = field(repr=False, default=None)

    @property
    def total_nnz(self):
        return self.denser_nnz + self.sparser_nnz

    @property
    def sparsity(self):
        return 1.0 - self.total_nnz / (self.num_tokens**2)

    @property
    def denser_macs(self):
        """SDDMM MACs in the denser block (processed densely)."""
        return self.num_global_tokens * self.num_tokens * self.head_dim

    @property
    def sparser_macs(self):
        """SDDMM MACs in the sparser remainder (non-zeros only)."""
        return self.sparser_nnz * self.head_dim

    @property
    def spmm_macs(self):
        """S·V MACs (every kept score contributes one dk-length row update)."""
        return self.total_nnz * self.head_dim


@dataclass(frozen=True)
class HeadStatArrays:
    """Per-head statistics of one layer as parallel int64/float64 arrays.

    Built once per :class:`AttentionWorkload` (see
    :meth:`AttentionWorkload.head_stats`) so simulators can replace their
    per-head Python walks with array reductions.
    """

    tokens: np.ndarray
    global_tokens: np.ndarray
    denser_nnz: np.ndarray
    sparser_nnz: np.ndarray
    index_bytes: np.ndarray
    head_dim: np.ndarray
    locality: np.ndarray


@dataclass(frozen=True)
class AttentionWorkload:
    """One attention layer: shapes plus per-head polarized statistics.

    ``streaming_fallback`` records whether the mask has been reordered into
    the polarized layout: only then can the scheduler fall back from
    scattered per-token fetches to an extra sequential stream (the global
    columns are out of the way and the remainder is band-ordered).  The
    pruning-only ablation sets it False.
    """

    num_tokens: int
    num_heads: int
    head_dim: int
    heads: Sequence[HeadWorkload]
    streaming_fallback: bool = True

    #: instance-cache attributes (see :func:`_memoized`) stripped from
    #: pickles: they are pure derived data, and shipping a workload to
    #: another process should not carry them.
    _CACHE_ATTRS = ("_head_stats", "_denser_job_products",
                    "_sparser_job_products")

    __getstate__ = _state_without_caches

    @property
    def embed_dim(self):
        return self.num_heads * self.head_dim

    # ------------------------------------------------------------------
    # Derived geometry arrays (built once, shared by every simulator)
    # ------------------------------------------------------------------
    def head_stats(self) -> HeadStatArrays:
        """Per-head statistics as parallel arrays (cached on the workload)."""
        return _memoized(self, "_head_stats", self._build_head_stats)

    def _build_head_stats(self):
        heads = self.heads
        return HeadStatArrays(
            tokens=np.array([h.num_tokens for h in heads], dtype=np.int64),
            global_tokens=np.array(
                [h.num_global_tokens for h in heads], dtype=np.int64
            ),
            denser_nnz=np.array(
                [h.denser_nnz for h in heads], dtype=np.int64
            ),
            sparser_nnz=np.array(
                [h.sparser_nnz for h in heads], dtype=np.int64
            ),
            index_bytes=np.array(
                [h.sparser_index_bytes for h in heads], dtype=np.int64
            ),
            head_dim=np.array([h.head_dim for h in heads], dtype=np.int64),
            locality=np.array(
                [h.sparser_locality for h in heads], dtype=np.float64
            ),
        )

    def denser_job_products(self) -> np.ndarray:
        """Per-column SDDMM products of the denser engine's job stream:
        every global-token column carries ``num_tokens`` products (cached)."""
        return _memoized(self, "_denser_job_products", self._build_denser_jobs)

    def _build_denser_jobs(self):
        stats = self.head_stats()
        return np.repeat(stats.tokens, stats.global_tokens)

    def sparser_job_products(self) -> np.ndarray:
        """Per-column products of the sparser engine's job stream, in head
        order with empty columns dropped (cached).  Heads without explicit
        per-column counts fall back to :func:`split_remainder`."""
        return _memoized(self, "_sparser_job_products", self._build_sparser_jobs)

    def _build_sparser_jobs(self):
        parts = []
        for head in self.heads:
            col_nnz = head.sparser_column_nnz
            if col_nnz is None:
                col_nnz = split_remainder(
                    head.sparser_nnz, head.num_tokens - head.num_global_tokens
                )
            parts.append(np.asarray(col_nnz, dtype=np.int64))
        if not parts:
            return np.zeros(0, dtype=np.int64)
        merged = np.concatenate(parts)
        return merged[merged > 0]

    @property
    def total_nnz(self):
        stats = self.head_stats()
        return int((stats.denser_nnz + stats.sparser_nnz).sum())

    @property
    def sparsity(self):
        return 1.0 - self.total_nnz / (self.num_heads * self.num_tokens**2)

    @property
    def dense_sddmm_macs(self):
        return self.num_heads * self.num_tokens**2 * self.head_dim

    @property
    def dense_spmm_macs(self):
        return self.dense_sddmm_macs

    @property
    def sddmm_macs(self):
        stats = self.head_stats()
        products = stats.global_tokens * stats.tokens + stats.sparser_nnz
        return int((products * stats.head_dim).sum())

    @property
    def spmm_macs(self):
        stats = self.head_stats()
        return int(
            ((stats.denser_nnz + stats.sparser_nnz) * stats.head_dim).sum()
        )

    @property
    def denser_fraction(self):
        """Fraction of SDDMM MACs in the denser engine's share."""
        total = self.sddmm_macs
        if total == 0:
            return 1.0
        stats = self.head_stats()
        denser = int(
            (stats.global_tokens * stats.tokens * stats.head_dim).sum()
        )
        return denser / total

    def column_cv(self):
        """Coefficient of variation of per-column SDDMM products when the
        whole mask is processed by ONE engine (global-token columns carry
        ``num_tokens`` products each, sparser columns their nnz).

        This is the temporal load imbalance the two-pronged split removes:
        a single K-stationary engine alternates between full columns and
        nearly-empty ones, leaving MAC lines idle (§III-A / §V-A)."""
        products = []
        for head in self.heads:
            products.extend([head.num_tokens] * head.num_global_tokens)
            if head.sparser_column_nnz is not None:
                products.extend(int(x) for x in head.sparser_column_nnz)
            else:
                products.extend(split_remainder(
                    head.sparser_nnz,
                    head.num_tokens - head.num_global_tokens,
                ).tolist())
        arr = np.asarray([p for p in products if p > 0], dtype=np.float64)
        if arr.size == 0 or arr.mean() == 0:
            return 0.0
        return float(arr.std() / arr.mean())

    @property
    def scattered_nnz(self):
        """Sparser non-zeros without streaming locality (scattered fetches)."""
        stats = self.head_stats()
        # np.round matches builtins.round (half-to-even) on float64.
        scattered = np.round(stats.sparser_nnz * (1.0 - stats.locality))
        return int(scattered.astype(np.int64).sum())

    def qk_bytes(self, bytes_per_element):
        """Q plus K footprint of the whole layer."""
        return 2 * self.num_tokens * self.embed_dim * bytes_per_element

    def v_bytes(self, bytes_per_element):
        return self.num_tokens * self.embed_dim * bytes_per_element

    def index_bytes(self):
        return int(self.head_stats().index_bytes.sum())


@dataclass(frozen=True)
class GemmWorkload:
    """Dense GEMM: (m × k) · (k × n) with resident weights of k·n elements."""

    name: str
    m: int
    k: int
    n: int

    @property
    def macs(self):
        return self.m * self.k * self.n

    def weight_bytes(self, bytes_per_element):
        return self.k * self.n * bytes_per_element

    def io_bytes(self, bytes_per_element):
        return (self.m * self.k + self.m * self.n) * bytes_per_element


@dataclass(frozen=True)
class ModelWorkload:
    """All layers of one model, ready for end-to-end simulation."""

    name: str
    attention_layers: Sequence[AttentionWorkload]
    linear_layers: Sequence[GemmWorkload]

    #: instance-cache attributes stripped from pickles:
    #: ``_cycle_grid_geometry`` is the cycle simulator's grid-walk
    #: geometry (see :func:`repro.perf.memo.instance_memo`).
    _CACHE_ATTRS = ("_cycle_grid_geometry",)

    __getstate__ = _state_without_caches

    @property
    def attention_macs(self):
        return sum(l.sddmm_macs + l.spmm_macs for l in self.attention_layers)

    @property
    def linear_macs(self):
        return sum(g.macs for g in self.linear_layers)

    @property
    def mean_sparsity(self):
        return float(np.mean([l.sparsity for l in self.attention_layers]))


def _band_locality(sparser_mask, col_offset, band_width=None):
    """Fraction of non-zeros within ±band_width of the (token) diagonal.

    ``sparser_mask`` has shape (N, N - Ngt); global column index of local
    column j is ``col_offset + j``.  Band width defaults to a small fraction
    of N, the reach of the on-chip Q row cache.
    """
    sparser_mask = np.asarray(sparser_mask, dtype=bool)
    n, m = sparser_mask.shape
    if sparser_mask.sum() == 0:
        return 1.0
    if band_width is None:
        band_width = max(2, n // 24)
    rows = np.arange(n)[:, None]
    cols = col_offset + np.arange(m)[None, :]
    band = np.abs(rows - cols) <= band_width
    return float((sparser_mask & band).sum() / sparser_mask.sum())


def attention_workload_from_masks(result: SplitConquerResult, head_dim,
                                  index_format="csc", reordered=True):
    """Build an :class:`AttentionWorkload` from a split-and-conquer result.

    ``reordered=False`` models the pruning-only ablation (§VI-C): the same
    mask without token reordering — no denser block (Ngt = 0), lower
    streaming locality, the whole mask treated as the sparser workload.
    """
    heads = []
    for part in result.partitions:
        if reordered:
            sparser = part.sparser_mask
            ngt = part.num_global_tokens
            denser_nnz = part.denser_nnz
            locality = _band_locality(sparser, col_offset=ngt)
        else:
            # Undo the permutation: use the original-order mask per head.
            inverse = np.argsort(part.permutation)
            original = part.reordered_mask[np.ix_(inverse, inverse)]
            sparser = original
            ngt = 0
            denser_nnz = 0
            locality = _band_locality(original, col_offset=0)
        if index_format == "csc":
            sp = CSCMatrix.from_dense(sparser)
            idx_bytes = sp.index_bytes()
            col_nnz = sp.column_nnz()
        elif index_format == "coo":
            sp = COOMatrix.from_dense(sparser)
            idx_bytes = sp.index_bytes()
            col_nnz = np.asarray(sparser).sum(axis=0)
        else:
            raise ValueError(f"unknown index format {index_format!r}")
        heads.append(
            HeadWorkload(
                num_tokens=part.num_tokens,
                head_dim=head_dim,
                num_global_tokens=ngt,
                denser_nnz=denser_nnz,
                sparser_nnz=int(np.asarray(sparser).sum()),
                sparser_index_bytes=idx_bytes,
                sparser_locality=locality,
                sparser_column_nnz=col_nnz,
            )
        )
    return AttentionWorkload(
        num_tokens=result.num_tokens,
        num_heads=result.num_heads,
        head_dim=head_dim,
        heads=heads,
        streaming_fallback=reordered,
    )


def dense_attention_workload(num_tokens, num_heads, head_dim):
    """Fully dense attention (the unpruned baseline / reorder-only point).

    Modeled as one all-dense "denser" block: every column is a global token,
    so streaming is perfectly regular."""
    heads = [
        HeadWorkload(
            num_tokens=num_tokens,
            head_dim=head_dim,
            num_global_tokens=num_tokens,
            denser_nnz=num_tokens * num_tokens,
            sparser_nnz=0,
            sparser_index_bytes=0,
            sparser_locality=1.0,
        )
        for _ in range(num_heads)
    ]
    return AttentionWorkload(
        num_tokens=num_tokens, num_heads=num_heads, head_dim=head_dim, heads=heads,
    )


def synthetic_attention_workload(num_tokens, num_heads, head_dim,
                                 sparsity=0.9, theta_d=0.25, seed=0,
                                 index_format="csc", reordered=True):
    """Paper-scale workload from a synthetic ViT attention map.

    ``sparsity=None`` returns the fully dense workload.
    """
    if sparsity is None:
        return dense_attention_workload(num_tokens, num_heads, head_dim)
    maps = synthetic_vit_attention(num_tokens, num_heads=num_heads, seed=seed)
    result = split_and_conquer(maps, target_sparsity=sparsity, theta_d=theta_d)
    return attention_workload_from_masks(result, head_dim,
                                         index_format=index_format,
                                         reordered=reordered)


def model_workload(config: ModelConfig, sparsity=0.9, theta_d=0.25, seed=0,
                   index_format="csc", reordered=True):
    """Full paper-scale workload for one model config.

    Attention masks come from per-layer synthetic ViT attention maps (seeded
    by layer so per-layer/head variation is present); dense GEMMs cover QKV
    generation, the output projection, and both MLP layers.
    """
    attention_layers = []
    linear_layers = []
    layer_index = 0
    for stage in config.paper_stages:
        n, h, dk, d = stage.num_tokens, stage.num_heads, stage.head_dim, stage.embed_dim
        hidden = int(d * config.mlp_ratio)
        for _ in range(stage.depth):
            attention_layers.append(
                synthetic_attention_workload(
                    n, h, dk, sparsity=sparsity, theta_d=theta_d,
                    seed=seed + 101 * layer_index, index_format=index_format,
                    reordered=reordered,
                )
            )
            linear_layers.extend(
                [
                    GemmWorkload(f"l{layer_index}.qkv", n, d, 3 * d),
                    GemmWorkload(f"l{layer_index}.proj", n, d, d),
                    GemmWorkload(f"l{layer_index}.fc1", n, d, hidden),
                    GemmWorkload(f"l{layer_index}.fc2", n, hidden, d),
                ]
            )
            layer_index += 1
    return ModelWorkload(
        name=config.name,
        attention_layers=attention_layers,
        linear_layers=linear_layers,
    )
