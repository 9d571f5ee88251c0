"""Design-choice ablations.

These back the paper's §V design discussion with measurements from our
simulators: K- vs S-stationary SDDMM dataflow, two-pronged vs single
engine, CSC vs COO indexing, the AE datapath, query-based forwarding, and
the event-driven simulator's validation against the analytical model.
"""

import pytest

from repro.hw import (
    CycleAccurateSimulator,
    ViTCoDAccelerator,
    synthetic_attention_workload,
)

from conftest import print_paper_vs_measured


@pytest.fixture(scope="module")
def deit_base_90(workload_cache):
    return workload_cache("deit-base", 0.9)


def test_dataflow_ablation(benchmark, deit_base_90):
    """§V-A Design Exploration 2: K-stationary beats S-stationary for the
    polarized masks."""

    def run():
        k = ViTCoDAccelerator().simulate_attention(deit_base_90)
        s = ViTCoDAccelerator(
            dataflow="s_stationary"
        ).simulate_attention(deit_base_90)
        return k, s

    k, s = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("K-stationary vs S-stationary", ">1x",
             s.seconds / k.seconds)]
    print_paper_vs_measured("Dataflow ablation (DeiT-Base @90%)", rows)
    assert s.seconds > k.seconds


def test_two_pronged_ablation(benchmark, deit_base_90):
    """§V-A Design Exploration 1: two engines beat one on polarized
    workloads (load-imbalance penalty on the single engine)."""

    def run():
        two = ViTCoDAccelerator(use_ae=False).simulate_attention(deit_base_90)
        one = ViTCoDAccelerator(
            use_ae=False, two_pronged=False
        ).simulate_attention(deit_base_90)
        return two, one

    two, one = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("two-pronged vs single engine", ">1x", one.seconds / two.seconds)]
    print_paper_vs_measured("Engine-count ablation", rows)
    assert one.seconds > two.seconds


def test_index_format_ablation(benchmark):
    """§V-B.1: CSC beats COO for the sparser engine's indexes on ViT masks
    (smaller index footprint -> smaller preload)."""

    def run():
        csc = synthetic_attention_workload(197, 12, 64, sparsity=0.9,
                                           seed=7, index_format="csc")
        coo = synthetic_attention_workload(197, 12, 64, sparsity=0.9,
                                           seed=7, index_format="coo")
        return csc, coo

    csc, coo = benchmark.pedantic(run, rounds=1, iterations=1)
    acc = ViTCoDAccelerator()
    r_csc = acc.simulate_attention_layer(csc)
    r_coo = acc.simulate_attention_layer(coo)
    rows = [
        ("CSC index bytes", "< COO", csc.index_bytes()),
        ("COO index bytes", "", coo.index_bytes()),
        ("CSC preprocess cycles", "< COO", r_csc.latency.preprocess),
    ]
    print_paper_vs_measured("Index-format ablation", rows)
    assert csc.index_bytes() < coo.index_bytes()
    assert r_csc.latency.preprocess < r_coo.latency.preprocess
    # Index buffer budget: the paper allocates 20KB per layer working set.
    per_head = csc.index_bytes() / csc.num_heads
    assert per_head < 20 * 1024


def test_ae_and_forwarding_ablation(benchmark, deit_base_90):
    """§IV-C / §V-B.1: the AE datapath and query-based forwarding each cut
    attention latency and DRAM traffic."""

    def run():
        full = ViTCoDAccelerator().simulate_attention(deit_base_90)
        no_ae = ViTCoDAccelerator(use_ae=False).simulate_attention(deit_base_90)
        no_fwd = ViTCoDAccelerator(
            q_forwarding_hit_rate=0.0
        ).simulate_attention(deit_base_90)
        return full, no_ae, no_fwd

    full, no_ae, no_fwd = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ("AE speedup", "~2.5x (paper)", no_ae.seconds / full.seconds),
        ("forwarding speedup", ">=1x", no_fwd.seconds / full.seconds),
    ]
    print_paper_vs_measured("AE + forwarding ablation", rows)
    assert no_ae.seconds > full.seconds
    assert no_fwd.seconds >= full.seconds


def test_event_driven_validates_analytical(benchmark, deit_base_90):
    """Validation requirement: the event-driven simulator and the
    analytical model agree within a bounded factor and track each other
    across sparsity."""

    def run():
        event = CycleAccurateSimulator().simulate_attention(
            deit_base_90.attention_layers
        )
        analytic = ViTCoDAccelerator().simulate_attention(deit_base_90)
        return event, analytic

    event, analytic = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = event.makespan / analytic.cycles
    rows = [
        ("event/analytical makespan ratio", "~1", ratio),
        ("denser-engine utilization", "(reported)",
         event.denser_busy / event.makespan),
        ("DRAM utilization", "(reported)",
         event.dram_busy / event.makespan),
    ]
    print_paper_vs_measured("Event-driven vs analytical", rows)
    assert 0.5 < ratio < 4.0
    assert 0.0 < event.dram_busy / event.makespan <= 1.0


def test_batch_scaling(benchmark, workload_cache):
    """§VI-A: for large-batch GPU comparisons the accelerator is scaled to
    comparable peak throughput; scaling must reduce latency near-linearly
    for compute-bound workloads."""

    def run():
        wl = workload_cache("deit-base", 0.9)
        base = ViTCoDAccelerator()
        big = ViTCoDAccelerator(config=base.config.scaled(4, name="x4"))
        return (base.simulate_attention(wl), big.simulate_attention(wl))

    small, big = benchmark.pedantic(run, rounds=1, iterations=1)
    gain = small.seconds / big.seconds
    rows = [("4x resources speedup", "~4x", gain)]
    print_paper_vs_measured("Resource-scaling ablation", rows)
    assert 2.0 < gain <= 4.5
