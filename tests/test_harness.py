"""Tests for the experiment harness: every figure/table runner works and its
headline claims point the right way."""

import pytest

from repro.harness import (
    ablation_prune_reorder,
    fig1_accuracy_sparsity,
    fig3_roofline,
    fig4_breakdown,
    fig8_polarization,
    fig15_speedups,
    fig17_accuracy_latency,
    fig19_breakdown_energy,
    format_speedup_row,
    format_table,
    nlp_comparison,
    nlp_dynamic_accuracy,
    nlp_fixed_mask_accuracy,
    table1_taxonomy,
    vit_fixed_mask_accuracy,
)

FAST_MODELS = ("deit-tiny", "levit-128")


class TestSurrogates:
    def test_vit_flat_until_knee(self):
        drop_at_90 = (vit_fixed_mask_accuracy("deit-base", 0.0)
                      - vit_fixed_mask_accuracy("deit-base", 0.9))
        assert drop_at_90 < 1.5  # paper: <=1.5% at 90%

    def test_vit_falls_past_95(self):
        assert (vit_fixed_mask_accuracy("deit-base", 0.99)
                < vit_fixed_mask_accuracy("deit-base", 0.9) - 0.5)

    def test_levit_knee_earlier(self):
        deit_drop = (vit_fixed_mask_accuracy("deit-base", 0.0)
                     - vit_fixed_mask_accuracy("deit-base", 0.88))
        levit_drop = (vit_fixed_mask_accuracy("levit-128", 0.0)
                      - vit_fixed_mask_accuracy("levit-128", 0.88))
        assert levit_drop > deit_drop

    def test_nlp_dynamic_degrades_before_vit_fixed(self):
        nlp_drop = (nlp_dynamic_accuracy(0.0) - nlp_dynamic_accuracy(0.9))
        vit_drop = (vit_fixed_mask_accuracy("deit-base", 0.0)
                    - vit_fixed_mask_accuracy("deit-base", 0.9))
        assert nlp_drop > vit_drop

    def test_nlp_fixed_loses_about_1_point_at_60(self):
        drop = (nlp_fixed_mask_accuracy(0.0) - nlp_fixed_mask_accuracy(0.6))
        assert 0.7 < drop < 2.0  # paper: -1.18 at 60%

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            vit_fixed_mask_accuracy("vgg-16", 0.5)


class TestFig1:
    def test_structure_and_trend(self):
        data = fig1_accuracy_sparsity()
        assert len(data["curves"]) == 5
        for name, curve in data["curves"].items():
            assert len(curve) == len(data["sparsities"])
        # At 90% sparsity ViT curves lose less (relative to their base)
        # than NLP curves.
        idx = data["sparsities"].index(0.9)
        deit = data["curves"]["deit-base (fixed)"]
        nlp = data["curves"]["nlp window (dynamic)"]
        assert (deit[0] - deit[idx]) < (nlp[0] - nlp[idx])


class TestFig3:
    def test_bounds(self):
        data = fig3_roofline()
        by_name = {p["name"]: p for p in data["points"]}
        assert by_name["sparse-vits"]["bound"] == "memory"
        assert by_name["dense-vits"]["bound"] == "compute"
        assert (by_name["sparse-vits"]["intensity"]
                < by_name["vitcod"]["intensity"])


class TestFig4:
    def test_sa_dominates_latency(self):
        rows = fig4_breakdown(models=("deit-base", "levit-128"))
        for row in rows:
            # Paper: SA >= ~50% of EdgeGPU latency, up to 69% on LeViT-128.
            assert row["sa_latency_fraction"] > 0.45
        levit = next(r for r in rows if r["model"] == "levit-128")
        assert levit["sa_latency_fraction"] > 0.6

    def test_mlp_dominates_flops_on_deit(self):
        row = next(r for r in fig4_breakdown(models=("deit-base",)))
        assert row["flops_fraction"]["mlp"] > row["flops_fraction"]["attention_core"]

    def test_fractions_normalised(self):
        for row in fig4_breakdown(models=FAST_MODELS):
            assert sum(row["flops_fraction"].values()) == pytest.approx(1.0)


class TestFig8:
    def test_polarization_improves(self):
        data = fig8_polarization(num_tokens=96, num_heads=4, num_layers=2)
        assert data["mean_polarization"] > 0.6
        for layer in data["layers"]:
            assert (layer["prune_and_reorder"]["sparsity"]
                    == pytest.approx(layer["prune_only"]["sparsity"]))


class TestFig15:
    @pytest.fixture(scope="class")
    def speedups(self):
        return fig15_speedups(sparsity=0.9, models=FAST_MODELS)

    def test_vitcod_beats_everything(self, speedups):
        for bname, value in speedups["mean"].items():
            assert value > 1.0, bname

    def test_ordering_matches_paper(self, speedups):
        mean = speedups["mean"]
        assert mean["cpu"] > mean["edgegpu"] > mean["gpu"]
        assert mean["gpu"] > mean["spatten"] > mean["sanger"] > 1.0

    def test_end_to_end_speedups_smaller(self):
        core = fig15_speedups(sparsity=0.9, models=("deit-tiny",))
        e2e = fig15_speedups(sparsity=0.9, models=("deit-tiny",),
                             end_to_end=True)
        assert e2e["mean"]["cpu"] < core["mean"]["cpu"]


class TestFig17:
    def test_latency_reduced_accuracy_held(self):
        rows = fig17_accuracy_latency(models=FAST_MODELS)
        for row in rows:
            # Paper: 45.1-85.8% attention-latency reduction, <1% acc drop.
            assert 0.4 < row["latency_reduction"] < 0.95
            assert (row["dense_accuracy"] - row["vitcod_accuracy"]) < 1.0

    def test_levit_capped_at_80(self):
        rows = fig17_accuracy_latency(models=("levit-128",), sparsity=0.9)
        assert rows[0]["sparsity"] == pytest.approx(0.8)


class TestFig19:
    @pytest.fixture(scope="class")
    def data(self):
        # DeiT-Base: the model whose Q/K working set exceeds the on-chip
        # buffers, where the AE's traffic reduction actually bites.
        return fig19_breakdown_energy(models=("deit-base",),
                                      sparsities=(0.8, 0.9))

    def test_sc_and_ae_both_contribute(self, data):
        assert data["speedup_sc_only_vs_sanger"] > 1.5  # paper: 2.7x
        assert data["speedup_ae_on_top"] > 1.2  # paper: 2.5x

    def test_energy_efficiency_over_sanger(self, data):
        # Paper: 9.8x (on the six DeiT/LeViT models).  Our energy model
        # reproduces the direction but a smaller magnitude (~2.4x on
        # DeiT-Base, less on the tiny models used here): it charges both
        # designs identical DRAM energy.
        assert data["energy_efficiency_vs_sanger"] > 1.0

    def test_ae_reduces_data_movement_share(self, data):
        bd = data["mean_breakdown_at_max_sparsity"]
        assert (bd["vitcod"]["data_movement"]
                <= bd["vitcod_no_ae"]["data_movement"])

    def test_sanger_has_preprocess_share(self, data):
        bd = data["mean_breakdown_at_max_sparsity"]
        assert bd["sanger"]["preprocess"] > bd["vitcod"]["preprocess"]


class TestTable1:
    def test_seven_accelerators(self):
        rows = table1_taxonomy()
        assert len(rows) == 7
        assert rows[-1]["accelerator"] == "ViTCoD"

    def test_vitcod_unique_static_polarized(self):
        rows = table1_taxonomy()
        vitcod = rows[-1]
        assert vitcod["pattern"] == "static-denser-sparser"
        assert all(r["pattern"] != vitcod["pattern"] for r in rows[:-1])


class TestAblationAndNLP:
    def test_prune_reorder_benefits(self):
        data = ablation_prune_reorder(sparsities=(0.8, 0.9))
        # Paper §VI-C: pruning ~5.14x, reordering ~2.59x on average; at high
        # sparsity pruning clearly dominates (8.14x vs 2.03x at 90%).
        assert data["mean_pruning_benefit"] > 2.0
        assert data["mean_reordering_benefit"] > 1.5
        at_90 = next(r for r in data["rows"] if r["sparsity"] == 0.9)
        assert at_90["pruning_benefit"] > at_90["reordering_benefit"]

    def test_nlp_speedup_smaller_than_vit(self):
        nlp_rows = nlp_comparison(sparsities=(0.9,))
        vit = fig15_speedups(sparsity=0.9, models=("deit-base",))
        assert 1.0 < nlp_rows[0]["speedup_vs_sanger"] < vit["mean"]["sanger"]

    def test_nlp_speedup_grows_with_sparsity(self):
        rows = nlp_comparison(sparsities=(0.6, 0.9))
        assert rows[1]["speedup_vs_sanger"] > rows[0]["speedup_vs_sanger"]

    def test_nlp_accuracy_cost_reported(self):
        rows = nlp_comparison(sparsities=(0.6,))
        assert rows[0]["fixed_mask_bleu_drop"] > 0.5


class TestReport:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", 3.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "2.50" in out

    def test_format_table_empty(self):
        out = format_table(["col"], [])
        assert "col" in out

    def test_speedup_row(self):
        assert format_speedup_row("m", [1.234, 10.0]) == ["m", "1.2x", "10.0x"]
