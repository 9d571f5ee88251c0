"""§VI-C ablation — pruning vs reordering contributions.

Paper (DeiT models, averaged over 60/70/80/90 % pruning ratios):
  * pruning contributes on-average 5.14x (8.14x at 90 %);
  * reordering contributes on-average 2.59x (2.03x at 90 %).
"""

from repro.harness import ablation_prune_reorder

from conftest import print_paper_vs_measured


def test_ablation_prune_vs_reorder(benchmark):
    data = benchmark.pedantic(
        lambda: ablation_prune_reorder(model="deit-base",
                                       sparsities=(0.6, 0.7, 0.8, 0.9)),
        rounds=1, iterations=1,
    )
    at_90 = next(r for r in data["rows"] if r["sparsity"] == 0.9)
    rows = [
        ("mean pruning benefit", 5.14, data["mean_pruning_benefit"]),
        ("pruning benefit @90%", 8.14, at_90["pruning_benefit"]),
        ("mean reordering benefit", 2.59, data["mean_reordering_benefit"]),
        ("reordering benefit @90%", 2.03, at_90["reordering_benefit"]),
    ]
    print_paper_vs_measured("§VI-C prune/reorder ablation", rows)

    # Shape: both matter; pruning's benefit grows with sparsity and clearly
    # dominates at 90% (paper: 8.14x vs 2.03x).  On the 60-90% average our
    # model slightly over-credits reordering (low-sparsity denser blocks are
    # processed densely, diluting the pruning side).
    assert data["mean_pruning_benefit"] > 1.3
    assert data["mean_reordering_benefit"] > 1.3
    assert at_90["pruning_benefit"] > at_90["reordering_benefit"]
    benefits = [r["pruning_benefit"] for r in data["rows"]]
    assert benefits == sorted(benefits)
    assert 0.5 * 5.14 < data["mean_pruning_benefit"] < 2.0 * 5.14
    assert 0.5 * 2.59 < data["mean_reordering_benefit"] < 2.0 * 2.59
