"""Whole-model simulation microbenchmarks: batched engine vs layer loops.

Smoke mode (plain ``pytest``) runs a small model and only checks that the
batched whole-model results agree bit-for-bit with the per-layer loops;
full mode (``--bench-out``) runs 12-layer DeiT-Base and asserts the
speedups.
"""

import dataclasses

from repro.hw import CycleAccurateSimulator, ViTCoDAccelerator, \
    merge_cycle_results
from repro.perf import benchit, cached_model_workload


def test_whole_model_batched_cycle_sim(bench_recorder, bench_mode):
    """Whole-model cycle sim (the grid walk at one design point) vs the
    scalar per-layer loop."""
    full = bench_mode == "full"
    model = "deit-base" if full else "deit-tiny"
    wl = cached_model_workload(model, sparsity=0.9)
    layers = wl.attention_layers

    vec = CycleAccurateSimulator()
    scalar = CycleAccurateSimulator(engine="scalar")

    # Bit-exact agreement between the batched pipeline and both loops.
    batched_result = vec.simulate_attention(wl)
    loop_result = merge_cycle_results(vec.simulate_layer(l) for l in layers)
    assert dataclasses.astuple(batched_result) == dataclasses.astuple(loop_result)
    assert len(batched_result.per_layer) == len(layers)

    repeats = 20 if full else 2
    batched = benchit(lambda: vec.simulate_attention(wl),
                      name="batched", repeats=repeats, warmup=1)
    layer_scalar = benchit(lambda: scalar.simulate_attention(layers),
                           name="per_layer_scalar",
                           repeats=max(repeats // 6, 1), warmup=0)

    speedup_vs_loop = layer_scalar.best / batched.best
    bench_recorder.record(
        "whole_model_cycle_sim",
        model=model,
        layers=len(layers),
        batched=batched.to_dict(),
        per_layer_scalar=layer_scalar.to_dict(),
        speedup_vs_layer_loop=speedup_vs_loop,
    )
    assert batched.best > 0
    if full:
        assert speedup_vs_loop >= 5.0, (
            f"batched whole-model speedup only {speedup_vs_loop:.1f}x"
        )


def test_whole_model_batched_analytical(bench_recorder, bench_mode):
    """Array-geometry ViTCoDAccelerator vs its per-layer reference fold."""
    full = bench_mode == "full"
    model = "deit-base" if full else "deit-tiny"
    wl = cached_model_workload(model, sparsity=0.9)

    batched_acc = ViTCoDAccelerator()
    loop_acc = ViTCoDAccelerator(batched=False)
    a = batched_acc.simulate_model(wl)
    b = loop_acc.simulate_model(wl)
    assert dataclasses.astuple(a.latency) == dataclasses.astuple(b.latency)
    assert dataclasses.astuple(a.energy) == dataclasses.astuple(b.energy)

    repeats = 30 if full else 2
    batched = benchit(lambda: batched_acc.simulate_model(wl),
                      name="batched", repeats=repeats, warmup=2)
    loop = benchit(lambda: loop_acc.simulate_model(wl),
                   name="per_layer_loop", repeats=max(repeats // 3, 1),
                   warmup=1)
    speedup = loop.best / batched.best
    bench_recorder.record(
        "whole_model_analytical",
        model=model,
        batched=batched.to_dict(),
        per_layer_loop=loop.to_dict(),
        speedup_vs_layer_loop=speedup,
    )
    if full:
        assert speedup >= 1.2, f"batched analytical only {speedup:.1f}x"
