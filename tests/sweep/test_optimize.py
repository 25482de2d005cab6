"""Tests of the adaptive design-space optimizer.

Covers the grid draws, the determinism contract (same seed => same
proposal sequence, pinned against a recorded golden; warm re-run
recomputes nothing, smaller budgets evaluate a prefix of larger ones — the
latter two as hypothesis properties), the loud failure on unknown
objectives, the stop reasons, and the acceptance scenario: the quick
catalogue optimizer must find a knee point matching or dominating the
exhaustive reference grid's at half the budget.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner.params import ParamSpec
from repro.runner.registry import ExperimentRegistry, ExperimentSpec
from repro.sweep.analysis import (UnknownMetricError, knee_point,
                                  pareto_front)
from repro.sweep.artifacts import export_sweep
from repro.sweep.catalog import (get_optimize, get_optimize_definition,
                                 get_sweep, iter_optimize_definitions)
from repro.sweep.driver import run_sweep
from repro.sweep.optimize import _draw, _perturb, _unit, run_optimize
from repro.sweep.spec import (GridAxis, OptimizeSpec, SweepSpec,
                              spec_from_payload)

#: Per-round proposals, point indices and fronts of the bowl search at
#: seeds 7, 8 and 11, recorded when the search still ran on typed
#: dimensions (``x`` an integer range, ``y`` and ``mode`` choices).
GOLDEN = Path(__file__).parent / "goldens" / "bowl_search_rounds.json"


def _bowl_runner(params, context):
    """Deterministic synthetic landscape: a quadratic bowl over (x, y).

    Millisecond-fast, so the property tests can run dozens of full
    optimizer trajectories.
    """
    x, y = params["x"], params["y"]
    offset = 0.5 if params["mode"] == "b" else 0.0
    return {"rows": [],
            "cost": float((x - 3) ** 2 + (y - offset) ** 2),
            "spread": float(abs(x - 4) + y)}


def _bowl_registry() -> ExperimentRegistry:
    registry = ExperimentRegistry()
    registry.register(ExperimentSpec(
        "bowl", "synthetic quadratic bowl", "", _bowl_runner,
        params=[ParamSpec("x", "int", 0, minimum=0, maximum=10),
                ParamSpec("y", "float", 0.0, minimum=0.0, maximum=1.0),
                ParamSpec("mode", "str", "a", choices=("a", "b"))]))
    return registry


def _bowl_spec(registry=None, **overrides) -> OptimizeSpec:
    settings_ = dict(name="bowl_search", experiment="bowl",
                     axes={"x": GridAxis(tuple(range(11))),
                           "y": GridAxis((0.0, 0.25, 0.5, 0.75, 1.0)),
                           "mode": GridAxis(("a", "b"))},
                     objectives={"cost": "min", "spread": "min"},
                     seed=7, max_points=12, initial_points=5, batch_size=3,
                     patience=2, registry=registry or _bowl_registry())
    settings_.update(overrides)
    return OptimizeSpec(**settings_)


class TestGridDraws:
    def test_consecutive_integer_axis_stays_within_its_ends(self):
        values = (3, 4, 5, 6)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert 3 <= _draw(values, rng) <= 6
            assert 3 <= _perturb(values, 5, rng, radius=0.5) <= 6
        assert _unit(values, 3) == 0.0 and _unit(values, 6) == 1.0

    def test_integer_axis_takes_a_rounded_gaussian_step(self):
        """An integer range moves by a Gaussian step of radius × span,
        rounded and clamped to its ends."""
        values = tuple(range(11))
        for seed in range(40):
            rng, reference = (np.random.default_rng(seed),
                              np.random.default_rng(seed))
            step = reference.normal(0.0, 0.3 * 10)
            assert _perturb(values, 5, rng, radius=0.3) == \
                min(10, max(0, int(round(5 + step))))

    @pytest.mark.parametrize("values", [(None, 2, 3), ("a", "b"),
                                        (1, 2, 4, 8), (6, 5, 4, 3),
                                        (True, False)])
    def test_other_axes_are_drawn_as_a_choice(self, values):
        """A ``None``, string, gapped or descending axis keeps its value
        unless a ``max(0.25, radius)`` coin redraws it from the tuple."""
        for seed in range(40):
            rng, coin = (np.random.default_rng(seed),
                         np.random.default_rng(seed))
            moved = _perturb(values, values[-1], rng, radius=0.1)
            if float(coin.random()) < 0.25:
                assert moved == _draw(values, coin)
            else:
                assert moved == values[-1]
            assert rng.bit_generator.state == coin.bit_generator.state
        assert _unit(values, values[0]) == 0.0
        assert _unit(values, values[-1]) == 1.0

    def test_one_value_axis_has_unit_one_half(self):
        for values in ((4,), (None,), ("a",)):
            assert _unit(values, values[0]) == 0.5

    def test_bool_and_int_spellings_are_told_apart(self):
        assert _unit((0, True), True) == 1.0
        with pytest.raises(ValueError):
            _unit((1, 2), True)


class TestOptimizeSpec:
    def test_payload_and_hash_round_trip(self):
        spec = get_optimize("case_study_power", quick=True)
        rebuilt = spec_from_payload(spec.to_payload())
        assert isinstance(rebuilt, OptimizeSpec)
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_quick_and_full_variants_differ(self):
        quick = get_optimize("case_study_power", quick=True)
        full = get_optimize("case_study_power")
        assert quick.spec_hash() != full.spec_hash()
        assert quick.max_points < full.max_points

    @pytest.mark.parametrize("quick", [True, False])
    def test_catalogue_optimizers_search_their_reference_grid(self, quick):
        for definition in iter_optimize_definitions():
            spec = definition.build(quick)
            grid = get_sweep(definition.reference_sweep, quick)
            assert isinstance(spec, SweepSpec)
            assert (spec.experiment, spec.axes, spec.base_params,
                    spec.objectives, spec.seed) == \
                (grid.experiment, grid.axes, grid.base_params,
                 grid.objectives, grid.seed)
            assert spec.max_points * 2 <= grid.num_points()

    def test_replace_keeps_the_budget(self):
        """perfbench re-seeds the catalogue optimizer this way."""
        spec = get_optimize("case_study_power", quick=True)
        reseeded = dataclasses.replace(spec, seed=9)
        assert isinstance(reseeded, OptimizeSpec)
        assert (reseeded.seed, reseeded.max_points) == (9, spec.max_points)

    def test_out_of_domain_value_fails_at_build_time(self):
        with pytest.raises(ValueError, match="beacon_order"):
            OptimizeSpec(name="bad", experiment="case_study_full",
                         axes={"beacon_order": GridAxis(tuple(range(100)))},
                         objectives={"mean_power_uw": "min"})

    def test_every_searched_value_is_validated_at_build_time(self):
        """A value inside the axis's ends but outside the parameter's
        choices fails when the spec is built, not in a later round."""
        registry = ExperimentRegistry()
        registry.register(ExperimentSpec(
            "sizes", "power-of-two sizes", "", _bowl_runner,
            params=[ParamSpec("x", "int", 1, choices=(1, 2, 4, 8))]))
        with pytest.raises(ValueError, match="invalid value 3"):
            OptimizeSpec(name="bad", experiment="sizes",
                         axes={"x": GridAxis(tuple(range(1, 9)))},
                         objectives={"cost": "min"}, registry=registry)

    def test_a_grid_point_breaking_a_schema_rule_fails_at_build_time(self):
        """The proposals are drawn from the grid, so a grid with no
        impossible point can propose none; one with such a point fails
        when the spec is built."""
        with pytest.raises(ValueError, match="superframe_order"):
            OptimizeSpec(name="bad", experiment="case_study_full",
                         axes={"beacon_order": GridAxis((2, 3, 4)),
                               "superframe_order": GridAxis((None, 3))},
                         objectives={"mean_power_uw": "min"})

    def test_unknown_axis_parameter_fails_at_build_time(self):
        with pytest.raises(KeyError, match="warp_factor"):
            OptimizeSpec(name="bad", experiment="case_study_full",
                         axes={"warp_factor": GridAxis((1, 2))},
                         objectives={"mean_power_uw": "min"})

    def test_objectives_are_required(self):
        with pytest.raises(ValueError, match="objective"):
            OptimizeSpec(name="bad", experiment="case_study_full",
                         axes={"beacon_order": GridAxis((3, 4))},
                         objectives={})

    def test_axis_base_param_overlap_rejected(self):
        with pytest.raises(ValueError, match="beacon_order"):
            OptimizeSpec(name="bad", experiment="case_study_full",
                         axes={"beacon_order": GridAxis((3, 4))},
                         objectives={"mean_power_uw": "min"},
                         base_params={"beacon_order": 4})

    def test_with_overrides_rejects_searched_axes(self):
        spec = get_optimize("case_study_power", quick=True)
        with pytest.raises(ValueError, match="beacon_order"):
            spec.with_overrides({"beacon_order": 5})
        derived = spec.with_overrides({"superframes": 6})
        assert isinstance(derived, OptimizeSpec)
        assert derived.max_points == spec.max_points
        assert derived.base_params["superframes"] == 6
        assert derived.spec_hash() != spec.spec_hash()

    @pytest.mark.parametrize("overrides", [
        {"max_points": 0}, {"initial_points": 0}, {"batch_size": 0},
        {"patience": 0}, {"max_rounds": 0},
    ])
    def test_budget_knobs_validated(self, overrides):
        with pytest.raises(ValueError):
            _bowl_spec(**overrides)


class TestRunOptimizeSynthetic:
    @pytest.mark.parametrize("seed", [7, 8, 11])
    def test_grid_search_reproduces_the_recorded_proposals(self, seed):
        golden = json.loads(GOLDEN.read_text())[str(seed)]
        result = run_optimize(_bowl_spec(seed=seed), cache=False)
        assert result.stop_reason == golden["stop_reason"]
        assert json.loads(json.dumps(
            [round_.to_payload() for round_ in result.rounds])) == \
            golden["rounds"]

    def test_same_spec_reproposes_identical_sequence(self):
        first = run_optimize(_bowl_spec(), cache=False)
        second = run_optimize(_bowl_spec(), cache=False)
        assert [r.proposals for r in first.rounds] == \
            [r.proposals for r in second.rounds]
        assert first.rows == second.rows
        assert first.stop_reason == second.stop_reason

    def test_different_seeds_explore_differently(self):
        base = run_optimize(_bowl_spec(), cache=False)
        other = run_optimize(_bowl_spec(seed=8), cache=False)
        assert [r.proposals for r in base.rounds] != \
            [r.proposals for r in other.rounds]

    def test_respects_the_budget_and_numbers_points_globally(self):
        result = run_optimize(_bowl_spec(), cache=False)
        assert len(result.points) <= 12
        assert [point.index for point in result.points] == \
            list(range(len(result.points)))
        evaluated = [dict(point.axis_values) for point in result.points]
        assert len({json.dumps(v, sort_keys=True, default=str)
                    for v in evaluated}) == len(evaluated)

    def test_unknown_objective_fails_loudly_after_round_zero(self):
        spec = _bowl_spec(objectives={"cst": "min"})
        with pytest.raises(UnknownMetricError) as excinfo:
            run_optimize(spec, cache=False)
        message = str(excinfo.value)
        assert "cst" in message and "cost" in message

    def test_space_exhausted_on_a_tiny_discrete_space(self):
        registry = _bowl_registry()
        spec = OptimizeSpec(name="tiny", experiment="bowl",
                            axes={"x": GridAxis((0, 1))},
                            objectives={"cost": "min"}, seed=3,
                            max_points=10, initial_points=4, batch_size=2,
                            registry=registry)
        result = run_optimize(spec, cache=False)
        assert result.stop_reason == "space_exhausted"
        assert len(result.points) == 2

    def test_converges_when_the_front_stabilises(self):
        """On a discrete space with a unique optimum, the front freezes
        once the optimum is found and patience ends the run well before
        the budget (which exceeds the whole 22-point space)."""
        registry = _bowl_registry()
        spec = OptimizeSpec(name="discrete", experiment="bowl",
                            axes={"x": GridAxis(tuple(range(11))),
                                  "mode": GridAxis(("a", "b"))},
                            objectives={"cost": "min"}, seed=7,
                            max_points=60, initial_points=6, batch_size=3,
                            patience=2, registry=registry)
        result = run_optimize(spec, cache=False)
        assert result.stop_reason in ("converged", "space_exhausted")
        if result.stop_reason == "converged":
            final = frozenset(row["point"] for row in result.front())
            stale = [frozenset(r.front_points) for r in result.rounds]
            assert stale[-1] == stale[-2] == stale[-3] == final

    def test_max_rounds_caps_the_trajectory(self):
        result = run_optimize(_bowl_spec(max_points=60, max_rounds=2),
                              cache=False)
        assert result.stop_reason in ("max_rounds", "converged")
        assert len(result.rounds) <= 2

    def test_front_and_knee_use_the_spec_objectives(self):
        result = run_optimize(_bowl_spec(), cache=False)
        front = result.front()
        assert front == pareto_front(result.rows,
                                     dict(result.spec.objectives))
        assert result.knee() == knee_point(front,
                                           dict(result.spec.objectives))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property_same_seed_same_proposals(self, seed):
        first = run_optimize(_bowl_spec(seed=seed), cache=False)
        second = run_optimize(_bowl_spec(seed=seed), cache=False)
        assert [r.proposals for r in first.rounds] == \
            [r.proposals for r in second.rounds]

    @settings(max_examples=10, deadline=None)
    @given(small=st.integers(min_value=1, max_value=8),
           extra=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property_budget_monotonicity(self, small, extra, seed):
        """A smaller budget evaluates a *prefix* of a larger budget's
        sequence: proposals are generated budget-independently and only
        truncated at the tail."""
        short = run_optimize(_bowl_spec(seed=seed, max_points=small),
                             cache=False)
        long = run_optimize(_bowl_spec(seed=seed, max_points=small + extra),
                            cache=False)
        short_values = [point.axis_values for point in short.points]
        long_values = [point.axis_values for point in long.points]
        assert short_values == long_values[:len(short_values)]

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property_warm_rerun_recomputes_nothing(self, seed):
        with tempfile.TemporaryDirectory() as root:
            registry = _bowl_registry()
            cold = run_optimize(_bowl_spec(seed=seed, registry=registry),
                                cache_root=root)
            warm = run_optimize(_bowl_spec(seed=seed, registry=registry),
                                cache_root=root)
            assert cold.computed_points == len(cold.points)
            assert warm.computed_points == 0
            assert warm.cached_points == len(cold.points)
            assert warm.rows == cold.rows
            assert [r.proposals for r in warm.rounds] == \
                [r.proposals for r in cold.rounds]


class TestQuickCaseStudyAcceptance:
    """The acceptance scenario, end to end on the real simulator."""

    def test_optimizer_knee_matches_or_dominates_the_grid_knee(self,
                                                               tmp_path):
        definition = get_optimize_definition("case_study_power")
        spec = definition.build(quick=True)
        grid = get_sweep(definition.reference_sweep, quick=True)
        assert spec.max_points * 2 <= grid.num_points()

        result = run_optimize(spec, cache_root=tmp_path)
        grid_result = run_sweep(grid, cache_root=tmp_path)
        objectives = dict(spec.objectives)
        grid_knee = knee_point(pareto_front(grid_result.rows, objectives),
                               objectives)
        optimizer_knee = result.knee()
        assert optimizer_knee is not None and grid_knee is not None
        same = all(optimizer_knee[metric] == grid_knee[metric]
                   for metric in objectives)
        from repro.sweep.analysis import dominates
        assert same or dominates(optimizer_knee, grid_knee, objectives)

    def test_warm_rerun_exports_byte_identical_artifacts(self, tmp_path):
        spec = get_optimize("case_study_power", quick=True)
        cold = run_optimize(spec, cache_root=tmp_path / "cache")
        warm = run_optimize(spec, cache_root=tmp_path / "cache")
        assert warm.computed_points == 0
        cold_paths = export_sweep(cold, tmp_path / "cold")
        warm_paths = export_sweep(warm, tmp_path / "warm")
        for kind in ("csv", "json", "manifest"):
            assert cold_paths[kind].read_bytes() == \
                warm_paths[kind].read_bytes()

    def test_serial_and_parallel_runs_export_identically(self, tmp_path):
        spec = get_optimize("case_study_power", quick=True)
        serial = run_optimize(spec, jobs=1, cache_root=tmp_path / "a")
        parallel = run_optimize(spec, jobs=2, cache_root=tmp_path / "b")
        assert serial.rows == parallel.rows
        serial_paths = export_sweep(serial, tmp_path / "sa")
        parallel_paths = export_sweep(parallel, tmp_path / "pa")
        for kind in ("csv", "json", "manifest"):
            assert serial_paths[kind].read_bytes() == \
                parallel_paths[kind].read_bytes()

    def test_manifest_records_rounds_and_stop_reason(self, tmp_path):
        spec = get_optimize("case_study_power", quick=True)
        result = run_optimize(spec, cache_root=tmp_path)
        paths = export_sweep(result, tmp_path / "out")
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["kind"] == "repro-optimize-manifest"
        assert manifest["spec_hash"] == spec.spec_hash()
        assert manifest["stop_reason"] == result.stop_reason
        assert len(manifest["rounds"]) == len(result.rounds)
        for entry, round_ in zip(manifest["rounds"], result.rounds):
            assert entry["proposals"] == round_.proposals
            assert entry["point_indices"] == round_.point_indices
            assert entry["front_points"] == round_.front_points
        assert "elapsed_s" not in json.dumps(manifest)
