"""Fig. 19 — latency breakdown and energy efficiency.

Paper: averaged over the DeiT/LeViT models,
  * split-and-conquer alone gives ~2.7x over Sanger; the AE adds ~2.5x more;
  * ViTCoD's data-movement share falls from 50 % to 28 % with the AE;
  * energy efficiency is 9.8x Sanger's.
"""

from repro.harness import fig19_breakdown_energy

from conftest import print_paper_vs_measured


def test_fig19_breakdown_and_energy(benchmark):
    data = benchmark.pedantic(
        lambda: fig19_breakdown_energy(
            models=("deit-tiny", "deit-small", "deit-base",
                    "levit-128", "levit-192", "levit-256"),
            sparsities=(0.6, 0.7, 0.8, 0.9),
        ),
        rounds=1, iterations=1,
    )
    bd = data["mean_breakdown_at_max_sparsity"]
    rows = [
        ("S&C-only speedup vs Sanger", 2.7, data["speedup_sc_only_vs_sanger"]),
        ("AE speedup on top", 2.5, data["speedup_ae_on_top"]),
        ("data-movement share w/o AE", 0.50,
         bd["vitcod_no_ae"]["data_movement"]),
        ("data-movement share w/ AE", 0.28, bd["vitcod"]["data_movement"]),
        ("energy efficiency vs Sanger", 9.8,
         data["energy_efficiency_vs_sanger"]),
    ]
    print_paper_vs_measured("Fig. 19 breakdown & energy (avg 60-90%)", rows)

    # Both innovations contribute multiplicatively.  Averaged over the full
    # 60-90% sweep the AE's contribution is diluted (low-sparsity points are
    # compute-bound in our model — documented deviation); at the 90% point
    # it is clearly visible, asserted below.
    assert data["speedup_sc_only_vs_sanger"] > 1.5
    assert data["speedup_ae_on_top"] > 1.02
    at90 = fig19_breakdown_energy(models=("deit-base",), sparsities=(0.9,))
    assert at90["speedup_ae_on_top"] > 1.3
    # The AE shifts the breakdown away from data movement.
    assert (bd["vitcod"]["data_movement"]
            < bd["vitcod_no_ae"]["data_movement"])
    # Sanger pays a visible preprocess (mask prediction) share; ViTCoD's
    # preprocess (CSC preload) is marginal.
    assert bd["sanger"]["preprocess"] > 3 * bd["vitcod"]["preprocess"]
    # Energy: direction reproduced; the magnitude falls short of the
    # paper's because our model charges both designs identical DRAM energy.
    assert data["energy_efficiency_vs_sanger"] > 1.5
