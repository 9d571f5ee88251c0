"""Cycle-simulator microbenchmarks: scan scheduler vs scalar event loop.

Smoke mode (plain ``pytest``) runs small shapes and only checks that both
engines execute and agree; full mode (``--bench-out``) runs the
DeiT-base-scale layer and asserts the vectorized engine's speedup.
"""

import dataclasses

from repro.hw import CycleAccurateSimulator
from repro.perf import benchit, cached_model_workload, \
    cached_synthetic_attention_workload


def _assert_engines_agree(wl):
    rv = CycleAccurateSimulator().simulate_layer(wl)
    rs = CycleAccurateSimulator(engine="scalar").simulate_layer(wl)
    assert dataclasses.astuple(rv) == dataclasses.astuple(rs)


def test_cycle_sim_layer(bench_recorder, bench_mode):
    """One attention layer at DeiT-base scale (197 tokens × 12 heads)."""
    full = bench_mode == "full"
    tokens, heads, dim = (197, 12, 64) if full else (48, 4, 16)
    wl = cached_synthetic_attention_workload(tokens, heads, dim,
                                             sparsity=0.9, seed=7)
    _assert_engines_agree(wl)

    vec = CycleAccurateSimulator()
    ref = CycleAccurateSimulator(engine="scalar")
    repeats = 20 if full else 2
    rv = benchit(lambda: vec.simulate_layer(wl), name="vectorized",
                 repeats=repeats, warmup=1)
    rs = benchit(lambda: ref.simulate_layer(wl), name="scalar",
                 repeats=max(repeats // 4, 1), warmup=1)
    speedup = rs.best / rv.best
    bench_recorder.record(
        "cycle_sim_layer",
        shape={"num_tokens": tokens, "num_heads": heads, "head_dim": dim,
               "sparsity": 0.9},
        vectorized=rv.to_dict(),
        scalar=rs.to_dict(),
        speedup_vs_scalar=speedup,
    )
    assert rv.best > 0 and rs.best > 0
    if full:
        assert speedup >= 5.0, f"vectorized speedup only {speedup:.1f}x"


def test_cycle_sim_full_model(bench_recorder, bench_mode):
    """All attention layers of one model through ``simulate_attention``."""
    full = bench_mode == "full"
    model = "deit-base" if full else "deit-tiny"
    wl = cached_model_workload(model, sparsity=0.9)

    vec = CycleAccurateSimulator()
    ref = CycleAccurateSimulator(engine="scalar")
    rv = benchit(lambda: vec.simulate_attention(wl.attention_layers),
                 name="vectorized", repeats=10 if full else 1, warmup=1)
    rs = benchit(lambda: ref.simulate_attention(wl.attention_layers),
                 name="scalar", repeats=3 if full else 1, warmup=0)
    speedup = rs.best / rv.best
    bench_recorder.record(
        "cycle_sim_full_model",
        model=model,
        layers=len(wl.attention_layers),
        vectorized=rv.to_dict(),
        scalar=rs.to_dict(),
        speedup_vs_scalar=speedup,
    )
    if full:
        assert speedup >= 5.0, f"vectorized speedup only {speedup:.1f}x"
