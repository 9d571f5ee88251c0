"""Grid-batched cycle-accurate DSE: the batch axis must be invisible.

The contract under test: scoring a grid chunk with
``BatchedCycleSimEvaluator.evaluate_batch`` (one (points × layers × jobs)
max-plus walk) is **bit-for-bit** the per-point ``CycleSimEvaluator``
loop — points, ordering, Pareto frontier, failure attribution, structural
rejections.  Property-tested over random grids of every parameter the
cycle simulator models; plus the width-band sub-batching invariants, the
whole-chunk ``ParetoFront.offer_all`` equivalence, and the hybrid fine
phase.  This is the CI-enforced guarantee that makes batching
an execution detail rather than a model change.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import dse as dse_module
from repro.harness.dse import (
    DesignPoint,
    ParetoFront,
    iter_design_space,
    iter_indexed_design_points,
    pareto_frontier,
    sweep_design_space,
)
from repro.hw import model_workload, synthetic_attention_workload
from repro.hw.params import VITCOD_DEFAULT
from repro.hw import cycle_sim as cycle_sim_module
from repro.hw.cycle_sim import CycleAccurateSimulator, _width_bands
from repro.models import get_config
from repro.sim import (
    BatchedCycleSimEvaluator,
    BatchEvaluator,
    CycleSimEvaluator,
    HybridEvaluator,
    UnsupportedParameterError,
    evaluator_from_spec,
    evaluator_spec,
    resolve_evaluator,
)
from repro.sim.evaluator import _DSE_PARAMETERS


@pytest.fixture(scope="module")
def small_workload():
    return model_workload(get_config("deit-tiny"), sparsity=0.9)


# ----------------------------------------------------------------------
# Random grids over every cycle-modelled parameter
# ----------------------------------------------------------------------
def cycle_grid_strategy():
    """Random DSE grids over the knobs the cycle simulator models
    (``q_forwarding_hit_rate`` is structurally rejected — tested
    separately), including the edge values (AE off via ``None``,
    fractional buffer sizes, minimum MAC lines)."""
    mac_lines = st.lists(st.integers(2, 512), min_size=1, max_size=3,
                         unique=True)
    bandwidth = st.lists(
        st.sampled_from([9.6, 19.2, 38.4, 76.8, 153.6, 307.2]),
        min_size=1, max_size=2, unique=True,
    )
    act_buffer = st.lists(st.sampled_from([0.5, 32, 64, 128, 320, 512]),
                          min_size=1, max_size=2, unique=True)
    ae = st.lists(st.sampled_from([None, 0.25, 0.5, 0.75, 1.0]),
                  min_size=1, max_size=3, unique=True)
    options = {
        "mac_lines": mac_lines,
        "bandwidth_gbps": bandwidth,
        "act_buffer_kb": act_buffer,
        "ae_compression": ae,
    }
    return st.sets(
        st.sampled_from(sorted(options)), min_size=1, max_size=4
    ).flatmap(lambda names: st.fixed_dictionaries(
        {name: options[name] for name in names}
    ))


class TestBitExactness:
    @given(grid=cycle_grid_strategy())
    @settings(max_examples=12, deadline=None)
    def test_batched_sweep_equals_per_point(self, small_workload, grid):
        """Points, grid ordering and frontier are bit-identical."""
        per_point = sweep_design_space(small_workload, grid,
                                       evaluator=CycleSimEvaluator())
        batched = sweep_design_space(small_workload, grid,
                                     evaluator="cycle")
        assert batched == per_point  # DesignPoint eq: every field bit-equal
        assert pareto_frontier(batched) == pareto_frontier(per_point)

    @given(grid=cycle_grid_strategy())
    @settings(max_examples=8, deadline=None)
    def test_evaluate_batch_matches_call_loop(self, small_workload, grid):
        """The raw batch surface, without the DSE engine in between."""
        from itertools import product

        names = sorted(grid)
        rows = list(product(*(grid[n] for n in names)))
        evaluator = BatchedCycleSimEvaluator()
        batch = evaluator.evaluate_batch(small_workload, VITCOD_DEFAULT,
                                         names, rows)
        assert len(batch) == len(rows)
        for row, metrics in zip(rows, batch):
            expected = dse_module._evaluate_design_point(
                small_workload, VITCOD_DEFAULT, names, row,
                CycleSimEvaluator(),
            )
            assert metrics.seconds == expected.seconds
            assert metrics.energy_joules == expected.energy_joules

    def test_indexed_subset_matches_per_point(self, small_workload):
        grid = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}
        per_point = dict(iter_indexed_design_points(
            small_workload, grid, [5, 0, 3],
            evaluator=CycleSimEvaluator(),
        ))
        batched = dict(iter_indexed_design_points(
            small_workload, grid, [5, 0, 3], evaluator="cycle",
        ))
        assert batched == per_point

    def test_sub_batched_walk_matches(self, small_workload, monkeypatch):
        """A tiny cell budget forces many design-point sub-batches; the
        walk must stay bit-identical (sub-batching is memory bounding,
        not a semantics change)."""
        grid = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}
        reference = sweep_design_space(small_workload, grid,
                                       evaluator="cycle")
        monkeypatch.setattr(cycle_sim_module, "_GRID_CELL_BUDGET", 1)
        assert sweep_design_space(small_workload, grid,
                                  evaluator="cycle") == reference


class TestBatchEngine:
    def test_cycle_resolves_batch_capable(self):
        evaluator = resolve_evaluator("cycle")
        assert isinstance(evaluator, BatchedCycleSimEvaluator)
        assert isinstance(evaluator, CycleSimEvaluator)  # same strategy
        assert isinstance(evaluator, BatchEvaluator)
        assert dse_module._batch_capable(evaluator)
        assert not dse_module._batch_capable(CycleSimEvaluator())

    def test_scalar_engine_never_batches(self, small_workload):
        """The scalar event loop is the independent oracle: its evaluator
        must keep the per-point path even though the class has an
        ``evaluate_batch`` method."""
        scalar = BatchedCycleSimEvaluator(engine="scalar")
        assert not scalar.batch_capable
        assert not dse_module._batch_capable(scalar)
        assert BatchedCycleSimEvaluator().batch_capable
        grid = {"mac_lines": [16, 64]}
        assert sweep_design_space(small_workload, grid,
                                  evaluator=scalar) == \
            sweep_design_space(small_workload, grid, evaluator="cycle")

    def test_spec_round_trip_shared_with_per_point(self):
        spec = {"name": "cycle", "engine": "vectorized"}
        assert evaluator_spec(BatchedCycleSimEvaluator()) == spec
        assert evaluator_spec(CycleSimEvaluator()) == spec
        rebuilt = evaluator_from_spec(spec)
        assert isinstance(rebuilt, BatchedCycleSimEvaluator)
        assert evaluator_spec(rebuilt) == spec

    def test_serial_sweep_uses_batch_calls(self, small_workload,
                                           monkeypatch):
        """The engine really routes cycle chunks through evaluate_batch."""
        calls = []
        real = BatchedCycleSimEvaluator.evaluate_batch

        def spying(self, workload, base_config, names, rows):
            rows = list(rows)
            calls.append(len(rows))
            return real(self, workload, base_config, names, rows)

        monkeypatch.setattr(BatchedCycleSimEvaluator, "evaluate_batch",
                            spying)
        grid = {"mac_lines": [16, 32, 64], "ae_compression": [None, 0.5]}
        points = sweep_design_space(small_workload, grid, evaluator="cycle")
        assert len(points) == 6
        assert sum(calls) == 6  # every point scored through the batch axis

    def test_invalid_point_falls_back_to_per_point_failures(
            self, small_workload):
        """A chunk holding an invalid point (1 MAC line breaks the
        allocator) must fail per point, exactly like the unbatched sweep
        — good points kept, bad point warn-dropped."""
        grid = {"mac_lines": [1, 32, 64]}
        with pytest.warns(RuntimeWarning, match="MAC lines"):
            per_point = sweep_design_space(small_workload, grid,
                                           evaluator=CycleSimEvaluator())
        with pytest.warns(RuntimeWarning, match="MAC lines"):
            batched = sweep_design_space(small_workload, grid,
                                         evaluator="cycle")
        assert batched == per_point
        assert [p.parameter("mac_lines") for p in batched] == [32, 64]

    def test_invalid_ae_falls_back_per_point(self, small_workload):
        grid = {"ae_compression": [1.5, 0.5]}
        with pytest.warns(RuntimeWarning, match="ae_compression"):
            batched = sweep_design_space(small_workload, grid,
                                         evaluator="cycle")
        with pytest.warns(RuntimeWarning, match="ae_compression"):
            per_point = sweep_design_space(small_workload, grid,
                                           evaluator=CycleSimEvaluator())
        assert batched == per_point
        assert [p.parameter("ae_compression") for p in batched] == [0.5]

    def test_unsupported_parameter_raises_cleanly(self, small_workload):
        """Sweeping a knob the cycle simulator does not model is a
        structural error in batched mode exactly as per point — raised
        clean, with no fallback RuntimeWarning noise."""
        grid = {"mac_lines": [16, 32], "q_forwarding_hit_rate": [0.0, 0.9]}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(UnsupportedParameterError,
                               match="q_forwarding_hit_rate"):
                sweep_design_space(small_workload, grid, evaluator="cycle")

    def test_supported_kwargs_derived_from_table(self):
        """Satellite: the per-point rejection set comes from the shared
        DSE parameter table, so batched and per-point paths cannot
        drift."""
        expected = frozenset(
            key
            for parameter in _DSE_PARAMETERS.values()
            if parameter.cycle_modelled
            for key in parameter.kwargs_keys
        )
        assert CycleSimEvaluator._SUPPORTED_KWARGS == expected
        assert BatchedCycleSimEvaluator._SUPPORTED_KWARGS == expected
        assert expected == frozenset({"use_ae", "ae_compression"})
        # Every parameter the table declares routes through both forms.
        assert set(_DSE_PARAMETERS) == {
            "mac_lines", "bandwidth_gbps", "act_buffer_kb",
            "ae_compression", "q_forwarding_hit_rate",
        }


class TestWidthBands:
    @given(widths=st.lists(st.integers(0, 5000), max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_band_partition_invariants(self, widths):
        """Every positive-width row lands in exactly one band; inside a
        band the widest row is less than twice the narrowest, so no row
        is ever padded across bands (padding overhead < 2x by
        construction)."""
        bands = _width_bands(np.array(widths, dtype=np.int64))
        covered = np.concatenate([rows for rows in bands]) if bands else \
            np.array([], dtype=np.int64)
        expected = [i for i, w in enumerate(widths) if w > 0]
        assert sorted(covered.tolist()) == expected
        for rows in bands:
            band_widths = [widths[i] for i in rows.tolist()]
            assert min(band_widths) > 0
            assert max(band_widths) < 2 * min(band_widths)

    def test_geometry_pads_within_band_only(self):
        """The grid geometry's padded matrices are exactly each band's
        own width — a narrow denser row never pays for the sparser
        engine's width."""
        layers = [synthetic_attention_workload(96, 2, 32, sparsity=s, seed=i)
                  for i, s in enumerate((0.95, 0.7))]
        sim = CycleAccurateSimulator()
        geometry = sim._grid_geometry(layers)
        n_d, n_s = geometry["n_d"], geometry["n_s"]
        all_widths = np.concatenate([n_d, n_s])
        seen = []
        for band in geometry["compute_bands"]:
            rows = band["rows"]
            seen.extend(rows.tolist())
            widths = all_widths[rows]
            assert band["pad"].shape[1] == widths.max()
            assert (band["lengths"] == widths).all()
            assert widths.max() < 2 * widths.min()
        assert sorted(seen) == sorted(
            i for i, w in enumerate(all_widths) if w > 0
        )
        for band in geometry["compute_bands"]:
            # Softmax slack offsets: finite exactly on the real job
            # slots (padded slots must stay +inf so the max-reduce
            # ignores them).
            assert band["sm_off"].shape == band["pad"].shape
            assert np.isfinite(band["sm_off"][~band["mask"]]).all()
            assert np.isinf(band["sm_off"][band["mask"]]).all()


class TestSimulateAttentionGrid:
    def test_unknown_column_rejected(self, small_workload):
        with pytest.raises(ValueError, match="unknown design-point"):
            CycleAccurateSimulator().simulate_attention_grid(
                small_workload, {"voltage": np.array([0.9])}
            )

    def test_mismatched_column_lengths_rejected(self, small_workload):
        with pytest.raises(ValueError, match="disagree on length"):
            CycleAccurateSimulator().simulate_attention_grid(
                small_workload,
                {"num_mac_lines": np.array([16, 32]),
                 "ae_compression": np.array([0.5])},
            )

    def test_empty_columns_is_own_design_point(self, small_workload):
        sim = CycleAccurateSimulator()
        totals = sim.simulate_attention_grid(small_workload, {})
        result = sim.simulate_attention(small_workload)
        assert totals["makespan"].shape == (1,)
        for name in ("makespan", "sddmm_makespan", "spmm_makespan",
                     "denser_busy", "sparser_busy", "dram_busy",
                     "softmax_busy"):
            assert totals[name][0] == getattr(result, name)
        assert totals["jobs_executed"] == result.jobs_executed


class TestOfferAll:
    @staticmethod
    def _points(values):
        return [
            DesignPoint(parameters=(("i", i),), seconds=float(s),
                        energy_joules=float(e), area_proxy=0.0)
            for i, (s, e) in enumerate(values)
        ]

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_offer_all_equals_sequential_offers(self, data):
        """Whole-chunk pruning is bit-for-bit the offer() loop: same kept
        points (at offer time), same final frontier, same counter —
        including duplicate and tied objective values, and any chunk
        split of the same stream."""
        n = data.draw(st.integers(1, 30))
        values = data.draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=n, max_size=n,
        ))
        points = self._points(values)
        sequential = ParetoFront()
        kept_seq = [p for p in points if sequential.offer(p)]
        chunked = ParetoFront()
        kept_chunks = []
        remaining = points
        while remaining:
            size = data.draw(st.integers(1, len(remaining)))
            kept_chunks.extend(chunked.offer_all(remaining[:size]))
            remaining = remaining[size:]
        assert kept_chunks == kept_seq
        assert chunked.points == sequential.points
        assert chunked.offered == sequential.offered

    def test_streaming_frontier_matches_per_point_offers(
            self, small_workload):
        """iter_design_space's chunked frontier pruning yields the same
        candidates and final frontier as per-point offers."""
        grid = {"mac_lines": [8, 16, 32, 64, 128],
                "ae_compression": [None, 0.5]}
        batched_front = ParetoFront()
        batched = list(iter_design_space(small_workload, grid,
                                         frontier=batched_front,
                                         evaluator="cycle"))
        per_point_front = ParetoFront()
        per_point = list(iter_design_space(small_workload, grid,
                                           frontier=per_point_front,
                                           evaluator=CycleSimEvaluator()))
        assert batched == per_point
        assert batched_front.points == per_point_front.points
        assert batched_front.offered == per_point_front.offered


class TestHybrid:
    def test_hybrid_fine_phase_batches_identically(self, small_workload):
        grid = {"mac_lines": [8, 16, 32, 64], "ae_compression": [None, 0.5]}
        from repro.sim import AnalyticalEvaluator

        batched = sweep_design_space(small_workload, grid,
                                     evaluator="hybrid")
        per_point = sweep_design_space(
            small_workload, grid,
            evaluator=HybridEvaluator(coarse=AnalyticalEvaluator(),
                                      fine=CycleSimEvaluator()),
        )
        assert batched == per_point


class TestDistShards:
    def test_cycle_shards_batched_vs_per_point_stores_identical(
            self, small_workload, tmp_path):
        """A batched cycle shard writes the records a per-point shard
        would — byte-identical stores, so mixed fleets are safe."""
        from repro.dist import merge_store, run_shard

        grid = {"mac_lines": [1, 16, 32, 64], "ae_compression": [None, 0.5]}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for shard in ("1/2", "2/2"):
                run_shard(small_workload, grid, shard,
                          tmp_path / "batched", evaluator="cycle")
                run_shard(small_workload, grid, shard,
                          tmp_path / "per_point",
                          evaluator=CycleSimEvaluator())
            batched = merge_store(tmp_path / "batched",
                                  workload=small_workload)
            per_point = merge_store(tmp_path / "per_point",
                                    workload=small_workload)
        assert batched.points == per_point.points
        assert batched.frontier == per_point.frontier
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            direct = sweep_design_space(small_workload, grid,
                                        evaluator="cycle")
        assert list(batched.points) == direct
