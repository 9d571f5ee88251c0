"""Tests for ASCII visualisation, the CLI, and result serialisation."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.harness import (
    report_from_dict,
    report_to_dict,
    reports_to_csv,
    to_json,
)
from repro.hw import (
    ViTCoDAccelerator,
    synthetic_attention_workload,
)
from repro.roofline import sddmm_roofline_points
from repro.viz import (
    render_bar,
    render_breakdown,
    render_curve,
    render_mask,
    render_roofline,
)


class TestRenderMask:
    def test_dense_block_visible(self):
        mask = np.zeros((64, 64), dtype=bool)
        mask[:, :8] = True
        art = render_mask(mask, width=32)
        lines = art.splitlines()
        # Left edge dense (darkest shade), right edge empty (space).
        assert all(line[0] == "@" for line in lines)
        assert all(line[-1] == " " for line in lines)

    def test_wrong_ndim(self):
        with pytest.raises(ValueError):
            render_mask(np.zeros(5))

    def test_small_mask(self):
        art = render_mask(np.eye(4, dtype=bool), width=60)
        assert len(art.splitlines()) == 4


class TestRenderBarsAndCurves:
    def test_bar_full_and_empty(self):
        assert render_bar(10, 10, width=10) == "#" * 10
        assert render_bar(0, 10, width=10) == " " * 10

    def test_bar_clamps_over_max(self):
        assert render_bar(20, 10, width=10) == "#" * 10

    def test_bar_invalid_max(self):
        with pytest.raises(ValueError):
            render_bar(1, 0)

    def test_breakdown_legend(self):
        out = render_breakdown(
            {"compute": 0.5, "preprocess": 0.2, "data_movement": 0.3}
        )
        assert "compute 50%" in out
        bar = out.split("]")[0]
        assert bar.count("#") == 20  # half of width 40

    def test_curve_renders_extremes(self):
        out = render_curve([0, 1, 2, 3], [0.0, 1.0, 4.0, 9.0],
                           x_label="epoch", y_label="loss")
        assert "epoch" in out and "loss" in out
        assert "*" in out

    def test_curve_constant_y(self):
        out = render_curve([0, 1], [5.0, 5.0])
        assert "*" in out

    def test_curve_empty_raises(self):
        with pytest.raises(ValueError):
            render_curve([], [])

    def test_curve_shape_mismatch(self):
        with pytest.raises(ValueError):
            render_curve([1, 2], [1.0])


class TestRenderRoofline:
    def test_labels_all_points(self):
        out = render_roofline(sddmm_roofline_points())
        assert "D=dense-vits" in out
        assert "S=sparse-vits" in out
        assert "V=vitcod" in out
        assert "_" in out  # the roof line itself


class TestSerialization:
    def make_report(self):
        wl = synthetic_attention_workload(48, 2, 16, sparsity=0.85, seed=0)
        return ViTCoDAccelerator().simulate_attention_layer(wl)

    def test_roundtrip(self):
        report = self.make_report()
        restored = report_from_dict(report_to_dict(report))
        assert restored.platform == report.platform
        assert restored.cycles == pytest.approx(report.cycles)
        assert restored.energy_pj == pytest.approx(report.energy_pj)
        assert restored.seconds == pytest.approx(report.seconds)

    def test_dict_is_json_safe(self):
        payload = report_to_dict(self.make_report())
        json.dumps(payload)  # must not raise

    def test_to_json_handles_numpy(self):
        out = to_json({"a": np.float64(1.5), "b": np.arange(3),
                       "c": {"d": np.int64(7)}})
        parsed = json.loads(out)
        assert parsed["a"] == 1.5
        assert parsed["b"] == [0, 1, 2]
        assert parsed["c"]["d"] == 7

    def test_csv_export(self):
        reports = [self.make_report(), self.make_report()]
        csv_text = reports_to_csv(reports)
        lines = csv_text.strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[0].startswith("platform,workload,seconds")


class TestCLI:
    def test_parser_accepts_known_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["fig15", "--sparsity", "0.8",
                                  "--models", "deit-tiny"])
        assert args.experiment == "fig15"
        assert args.sparsity == 0.8

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out and "roofline" in out

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        assert "ViTCoD" in capsys.readouterr().out

    def test_roofline_command(self, capsys):
        assert main(["roofline"]) == 0
        assert "ridge" in capsys.readouterr().out

    def test_polarize_command_small(self, capsys):
        assert main(["polarize", "--tokens", "48", "--heads", "2"]) == 0
        assert "global tokens" in capsys.readouterr().out

    def test_json_export(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["polarize", "--tokens", "32", "--heads", "2",
                     "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert "sparsity" in data

    def test_fig15_single_model(self, capsys):
        assert main(["fig15", "--models", "deit-tiny"]) == 0
        out = capsys.readouterr().out
        assert "MEAN" in out and "sanger" in out

    def test_dse_command(self, capsys):
        assert main(["dse", "--models", "deit-tiny",
                     "--grid", "mac_lines=32,64",
                     "--grid", "ae_compression=none,0.5"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "4 points (analytical evaluator)" in out

    def test_dse_command_cycle_evaluator_json(self, tmp_path, capsys):
        path = tmp_path / "dse.json"
        assert main(["dse", "--models", "deit-tiny",
                     "--grid", "mac_lines=32,64",
                     "--evaluator", "cycle", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["evaluator"] == "cycle"
        assert len(data["points"]) == 2
        assert any(p["pareto"] for p in data["points"])

    @pytest.mark.parametrize("command", [
        ["dse", "--models", "deit-tiny"],
        ["dse-shard", "--shard", "1/1", "--out", "{store}"],
        ["dse-fleet", "--out", "{store}", "--num-shards", "2"],
        ["dse-merge", "{store}"],
    ], ids=lambda command: command[0])
    def test_dse_commands_reject_n_jobs(self, command, tmp_path):
        """Sweeps run in process; multi-core fan-out is dse-fleet's
        --num-shards, so no DSE command takes a worker count."""
        argv = [arg.format(store=tmp_path / "store") for arg in command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--n-jobs", "2"])
        assert excinfo.value.code == 2  # argparse: unrecognized arguments

    def test_dse_grid_parsing(self):
        from repro.cli import parse_grid
        grid = parse_grid(["mac_lines=16,32", "ae_compression=none,0.25"])
        assert grid == {"mac_lines": (16, 32),
                        "ae_compression": (None, 0.25)}
        assert parse_grid(None)  # default grid is non-empty
        with pytest.raises(SystemExit):
            parse_grid(["mac_lines"])
        with pytest.raises(SystemExit):
            parse_grid(["mac_lines=32,"])  # trailing comma
        with pytest.raises(SystemExit):
            parse_grid(["mac_lines=fast"])  # non-numeric


def test_cli_rejects_stray_positional_for_plain_experiments():
    """Only the dse-shard/dse-merge/dse-status verbs take a store path."""
    from repro.cli import main

    with pytest.raises(SystemExit, match="store"):
        main(["fig8", "stray-token"])
