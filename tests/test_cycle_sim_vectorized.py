"""Scan-based scheduler vs the scalar reference: exact-equality properties.

The vectorized engine must reproduce the scalar event loop *bit for bit*
(durations are quantized to a ``2**-20``-cycle grid precisely so that the
two associations of the same event algebra cannot round differently).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import (
    AttentionWorkload,
    CycleAccurateSimulator,
    DramModel,
    HeadWorkload,
    VITCOD_DEFAULT,
    dense_attention_workload,
    synthetic_attention_workload,
)


def assert_results_identical(wl, **sim_kwargs):
    """Simulate ``wl`` with both engines and compare field-for-field."""
    vec = CycleAccurateSimulator(engine="vectorized", **sim_kwargs)
    ref = CycleAccurateSimulator(engine="scalar", **sim_kwargs)
    rv = vec.simulate_layer(wl)
    rs = ref.simulate_layer(wl)
    for f in dataclasses.fields(rv):
        assert getattr(rv, f.name) == getattr(rs, f.name), (
            f"field {f.name}: vectorized={getattr(rv, f.name)!r} "
            f"scalar={getattr(rs, f.name)!r}"
        )
    return rv


def head_from_col_nnz(num_tokens, head_dim, ngt, col_nnz):
    """Consistent HeadWorkload with explicit per-column sparser counts."""
    col_nnz = np.asarray(col_nnz, dtype=np.int64)
    return HeadWorkload(
        num_tokens=num_tokens,
        head_dim=head_dim,
        num_global_tokens=ngt,
        denser_nnz=ngt * num_tokens,
        sparser_nnz=int(col_nnz.sum()),
        sparser_index_bytes=int(4 * (col_nnz.size + 1) + col_nnz.sum()),
        sparser_column_nnz=col_nnz,
    )


class TestExactAgreement:
    @pytest.mark.parametrize("use_ae,compression", [
        (True, 0.5), (True, 0.25), (True, 1.0), (False, 0.5),
    ])
    def test_synthetic_workload(self, use_ae, compression):
        wl = synthetic_attention_workload(197, 12, 64, sparsity=0.9, seed=7)
        assert_results_identical(wl, use_ae=use_ae,
                                 ae_compression=compression)

    @pytest.mark.parametrize("sparsity", [0.7, 0.8, 0.95])
    def test_across_sparsity(self, sparsity):
        wl = synthetic_attention_workload(96, 4, 32, sparsity=sparsity, seed=3)
        assert_results_identical(wl)

    def test_dense_workload(self):
        assert_results_identical(dense_attention_workload(32, 2, 16))

    def test_scaled_hardware(self):
        wl = synthetic_attention_workload(48, 2, 16, sparsity=0.8, seed=1)
        assert_results_identical(wl, config=VITCOD_DEFAULT.scaled(4))

    def test_zero_nnz_columns(self):
        """Empty sparser columns are skipped by both engines."""
        heads = [
            head_from_col_nnz(16, 8, ngt=2, col_nnz=[5, 0, 3, 0, 0, 1] + [0] * 8),
            head_from_col_nnz(16, 8, ngt=0, col_nnz=[0] * 16),
        ]
        wl = AttentionWorkload(num_tokens=16, num_heads=2, head_dim=8,
                               heads=heads)
        r = assert_results_identical(wl)
        # head 0: 2 denser + 3 non-empty sparser; head 1: nothing; +2 streams
        assert r.jobs_executed == 2 + 3 + 2

    def test_mean_density_fallback(self):
        """``sparser_column_nnz=None`` falls back to spread counts."""
        heads = [HeadWorkload(
            num_tokens=16, head_dim=8, num_global_tokens=3,
            denser_nnz=48, sparser_nnz=40, sparser_index_bytes=64,
        )]
        wl = AttentionWorkload(num_tokens=16, num_heads=1, head_dim=8,
                               heads=heads)
        assert_results_identical(wl)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_property_random_workloads(self, data):
        """Hand-rolled random workloads agree bit-for-bit."""
        num_tokens = data.draw(st.integers(4, 48), label="num_tokens")
        head_dim = data.draw(st.integers(2, 32), label="head_dim")
        num_heads = data.draw(st.integers(1, 4), label="num_heads")
        heads = []
        for h in range(num_heads):
            ngt = data.draw(st.integers(0, num_tokens), label=f"ngt{h}")
            col_nnz = data.draw(
                st.lists(st.integers(0, num_tokens),
                         min_size=num_tokens - ngt,
                         max_size=num_tokens - ngt),
                label=f"col_nnz{h}",
            )
            heads.append(head_from_col_nnz(num_tokens, head_dim, ngt, col_nnz))
        wl = AttentionWorkload(num_tokens=num_tokens, num_heads=num_heads,
                               head_dim=head_dim, heads=heads)
        use_ae = data.draw(st.booleans(), label="use_ae")
        assert_results_identical(wl, use_ae=use_ae)


class TestNnzConservation:
    """The mean-density fallback must not drop remainder products."""

    def _fallback_layer(self, num_tokens, ngt, sparser_nnz):
        head = HeadWorkload(
            num_tokens=num_tokens, head_dim=8, num_global_tokens=ngt,
            denser_nnz=ngt * num_tokens, sparser_nnz=sparser_nnz,
            sparser_index_bytes=0,
        )
        return AttentionWorkload(num_tokens=num_tokens, num_heads=1,
                                 head_dim=8, heads=[head])

    @pytest.mark.parametrize("num_tokens,ngt,nnz", [
        (16, 3, 40),   # 40 over 13 columns: remainder 1
        (16, 0, 17),   # prime nnz over 16 columns
        (10, 2, 7),    # fewer non-zeros than columns
        (10, 10, 0),   # no sparser columns at all
    ])
    def test_jobs_carry_all_products(self, num_tokens, ngt, nnz):
        wl = self._fallback_layer(num_tokens, ngt, nnz)
        sim = CycleAccurateSimulator()
        _, sparser_jobs = sim._build_jobs(wl)
        assert sum(j.products for j in sparser_jobs) == nnz
        _, sparser_products = sim._column_products(wl)
        assert int(sparser_products.sum()) == nnz

    def test_simulated_macs_match_workload(self):
        wl = self._fallback_layer(16, 3, 40)
        sim = CycleAccurateSimulator()
        _, sparser_jobs = sim._build_jobs(wl)
        simulated = sum(j.products for j in sparser_jobs) * wl.head_dim
        assert simulated == wl.heads[0].sparser_macs

    def test_fallback_matches_column_cv_distribution(self):
        """workload.column_cv and the job builder spread identically."""
        wl = self._fallback_layer(16, 3, 40)
        sim = CycleAccurateSimulator()
        _, sparser_jobs = sim._build_jobs(wl)
        job_products = sorted(j.products for j in sparser_jobs)
        # column_cv's product list: ngt global columns + per-column spread
        head = wl.heads[0]
        expected = [head.num_tokens] * head.num_global_tokens
        per, rem = divmod(head.sparser_nnz, head.num_tokens - head.num_global_tokens)
        expected += [per + 1] * rem + [per] * (16 - 3 - rem)
        assert sorted(p for p in expected[3:] if p > 0) == job_products


class TestEngineFlag:
    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            CycleAccurateSimulator(engine="gpu")

    def test_default_is_vectorized(self):
        assert CycleAccurateSimulator().engine == "vectorized"

    @pytest.mark.parametrize("dram", [
        DramModel(),
        DramModel(bytes_per_cycle=32.0),
        type("StatefulDram", (DramModel,), {})(),
        None,
    ], ids=["default", "custom-rate", "subclass", "none"])
    def test_dram_argument_rejected(self, dram):
        """The channel is always the config's plain DramModel."""
        with pytest.raises(TypeError):
            CycleAccurateSimulator(dram=dram)

    def test_multi_layer_agreement(self):
        wl = synthetic_attention_workload(48, 2, 16, sparsity=0.8, seed=1)
        layers = [wl, wl, wl]
        rv = CycleAccurateSimulator().simulate_attention(layers)
        rs = CycleAccurateSimulator(engine="scalar").simulate_attention(layers)
        assert dataclasses.astuple(rv) == dataclasses.astuple(rs)
