"""Tests of the sweep axes and the declarative SweepSpec."""

import json

import pytest

from repro.sweep.catalog import (get_optimize, get_sweep, optimize_names,
                                 sweep_names)
from repro.sweep.spec import (GridAxis, SweepSpec, axis_from_payload,
                              spec_from_payload)


class TestAxes:
    def test_grid_axis_preserves_order_and_values(self):
        axis = GridAxis((3, 1, 2))
        assert axis.values == (3, 1, 2)

    def test_grid_axis_accepts_categoricals_and_none(self):
        axis = GridAxis(["adaptive", "fixed", None])
        assert axis.values == ("adaptive", "fixed", None)

    def test_grid_axis_rejects_empty(self):
        with pytest.raises(ValueError):
            GridAxis(())

    def test_axis_payload_round_trip(self):
        axis = GridAxis((1, "two", None))
        assert axis.to_payload() == {"kind": "grid",
                                     "values": [1, "two", None]}
        assert axis_from_payload(axis.to_payload()) == axis

    def test_unknown_axis_kind_rejected(self):
        with pytest.raises(ValueError, match="Unknown axis kind"):
            axis_from_payload({"kind": "range", "start": 1, "stop": 3})


class TestSweepSpec:
    def spec(self, **overrides):
        kwargs = dict(name="demo", experiment="case_study_full",
                      axes={"total_nodes": GridAxis((16, 32)),
                            "beacon_order": GridAxis((3, 4, 5))},
                      base_params={"superframes": 4})
        kwargs.update(overrides)
        return SweepSpec(**kwargs)

    def test_expansion_is_the_cartesian_product_last_axis_fastest(self):
        points = self.spec().expand_axes()
        assert len(points) == 6
        assert points[0] == {"total_nodes": 16, "beacon_order": 3}
        assert points[1] == {"total_nodes": 16, "beacon_order": 4}
        assert points[3] == {"total_nodes": 32, "beacon_order": 3}
        assert self.spec().num_points() == 6

    def test_needs_at_least_one_axis(self):
        with pytest.raises(ValueError):
            self.spec(axes={})

    def test_axis_base_param_overlap_rejected(self):
        with pytest.raises(ValueError, match="both as axes"):
            self.spec(base_params={"total_nodes": 100})

    def test_bad_objective_sense_rejected(self):
        with pytest.raises(ValueError, match="sense"):
            self.spec(objectives={"mean_power_uw": "minimise"})

    def test_axes_must_be_grid_axes(self):
        with pytest.raises(TypeError, match="GridAxis"):
            self.spec(axes={"total_nodes": (16, 32)})

    def test_payload_round_trip_preserves_identity(self):
        spec = self.spec(objectives={"mean_power_uw": "min"}, seed=7,
                         title="round trip")
        rebuilt = spec_from_payload(spec.to_payload())
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    @pytest.mark.parametrize("quick", [True, False])
    @pytest.mark.parametrize("name", sweep_names() + optimize_names())
    def test_catalogue_payloads_round_trip(self, name, quick):
        """``spec_from_payload`` rebuilds every catalogue sweep and
        optimizer — the class included — from its payload."""
        get = get_optimize if name in optimize_names() else get_sweep
        spec = get(name, quick=quick)
        rebuilt = spec_from_payload(json.loads(json.dumps(spec.to_payload())))
        assert type(rebuilt) is type(spec)
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_spec_hash_is_stable_across_processes(self):
        """The hash must not depend on dict iteration or code version —
        only on the spec's own content."""
        spec = self.spec()
        clone = self.spec()
        assert spec.spec_hash() == clone.spec_hash()
        assert len(spec.spec_hash()) == 16

    def test_build_time_validation_names_experiment_param_and_domain(self):
        """Acceptance: an out-of-bounds axis value fails when the spec is
        *built*, and the message carries everything needed to fix it."""
        with pytest.raises(ValueError) as excinfo:
            self.spec(axes={"beacon_order": GridAxis((3, 99))})
        message = str(excinfo.value)
        assert "case_study_full" in message
        assert "beacon_order" in message
        assert "int in [0, 14]" in message

    def test_base_params_validate_at_build_time_too(self):
        with pytest.raises(KeyError, match="Did you mean: superframes"):
            self.spec(base_params={"superfames": 4})

    def test_axis_values_are_type_checked(self):
        with pytest.raises(ValueError, match="tx_policy"):
            self.spec(axes={"tx_policy": GridAxis(("adaptive", "warp"))})

    def test_equivalent_spellings_canonicalise_to_one_spec_hash(self):
        """Base params and grid values are stored in canonical coerced
        form, so spelling variants of one design space share a hash (and
        therefore a manifest), matching the engine's canonical keys."""
        plain = self.spec(base_params={"superframes": 4})
        spelled = self.spec(base_params={"superframes": "4"})
        assert spelled.base_params == {"superframes": 4}
        assert spelled.spec_hash() == plain.spec_hash()
        int_axis = self.spec(axes={"total_nodes": GridAxis((8, 16))})
        float_axis = self.spec(axes={"total_nodes": GridAxis((8, 16.0))})
        assert float_axis.axes["total_nodes"].values == (8, 16)
        assert float_axis.spec_hash() == int_axis.spec_hash()

    @staticmethod
    def _custom_registry():
        from repro.runner.params import ParamSpec
        from repro.runner.registry import ExperimentRegistry, ExperimentSpec

        registry = ExperimentRegistry()
        registry.register(ExperimentSpec(
            "custom_exp", "t", "f", lambda p, c: {"rows": []},
            params=[ParamSpec("n", "int", 1, minimum=1)]))
        return registry

    def test_custom_registry_specs_validate_against_that_registry(self):
        """A sweep over a non-catalogue experiment builds when the spec
        carries its registry (regression: validation used to hard-code the
        default catalogue)."""
        registry = self._custom_registry()
        spec = SweepSpec(name="custom", experiment="custom_exp",
                         axes={"n": GridAxis((1, 2))}, registry=registry)
        assert spec.num_points() == 2
        with pytest.raises(ValueError, match="'n'"):
            SweepSpec(name="custom", experiment="custom_exp",
                      axes={"n": GridAxis((0,))}, registry=registry)
        # The registry is policy, not identity: payloads and hashes match
        # a default-registry spec's shape and never embed it.
        assert "registry" not in spec.to_payload()

    def test_custom_registry_specs_run_end_to_end(self):
        """run_sweep / sweep_status / Session.sweep all honour the spec's
        own registry (regression: it used to be dropped at run time)."""
        import repro.api as api
        from repro.sweep.driver import run_sweep, sweep_status

        spec = SweepSpec(name="custom", experiment="custom_exp",
                         axes={"n": GridAxis((1, 2))},
                         registry=self._custom_registry())
        result = run_sweep(spec, cache=False)
        assert [row["n"] for row in result.rows] == [1, 2]
        assert sweep_status(spec, cache=False).pending_count == 2
        session_result = api.Session(cache=False).sweep(spec)
        assert [row["n"] for row in session_result.rows] == [1, 2]

    def test_with_overrides_rebuilds_and_revalidates(self):
        spec = self.spec()
        merged = spec.with_overrides({"superframes": 8})
        assert merged.base_params["superframes"] == 8
        assert merged.spec_hash() != spec.spec_hash()
        with pytest.raises(ValueError, match="axis"):
            spec.with_overrides({"total_nodes": 8})
        with pytest.raises(ValueError, match="superframes"):
            spec.with_overrides({"superframes": 0})

    def test_spec_hash_changes_with_content(self):
        base = self.spec()
        assert base.spec_hash() != self.spec(seed=1234).spec_hash()
        assert base.spec_hash() != \
            self.spec(base_params={"superframes": 5}).spec_hash()
        assert base.spec_hash() != self.spec(
            axes={"total_nodes": GridAxis((16, 64))}).spec_hash()
