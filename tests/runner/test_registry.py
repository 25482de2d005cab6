"""Tests of the experiment registry and spec resolution."""

import pytest

from repro.runner.params import (ParamSpec, ParameterValueError,
                                 UnknownParameterError)
from repro.runner.registry import (ExperimentRegistry, ExperimentSpec,
                                   UnknownExperimentError, default_registry)


def _spec(name="demo", **overrides):
    defaults = dict(name=name, title="demo experiment", figure="Fig. 0",
                    runner=lambda params, context: {"rows": []})
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestRegistry:
    def test_register_and_get(self):
        registry = ExperimentRegistry()
        spec = registry.register(_spec())
        assert registry.get("demo") is spec
        assert "demo" in registry
        assert registry.names() == ("demo",)

    def test_duplicate_name_rejected(self):
        registry = ExperimentRegistry()
        registry.register(_spec())
        with pytest.raises(ValueError):
            registry.register(_spec())

    def test_unknown_experiment_error_lists_names_and_suggests(self):
        registry = ExperimentRegistry()
        registry.register(_spec("fig6_csma"))
        with pytest.raises(UnknownExperimentError) as excinfo:
            registry.get("fig6")
        message = str(excinfo.value)
        assert "fig6_csma" in message
        assert "Did you mean" in message

    def test_iteration_is_sorted(self):
        registry = ExperimentRegistry()
        registry.register(_spec("beta"))
        registry.register(_spec("alpha"))
        assert [spec.name for spec in registry] == ["alpha", "beta"]


class TestResolveParams:
    def test_defaults_and_overrides(self):
        spec = _spec(params=[ParamSpec("a", "int", 1),
                             ParamSpec("b", "int", 2)])
        assert spec.resolve_params() == {"a": 1, "b": 2}
        assert spec.resolve_params({"b": 7}) == {"a": 1, "b": 7}

    def test_unknown_parameter_rejected(self):
        spec = _spec(params=[ParamSpec("a", "int", 1)])
        with pytest.raises(KeyError, match="no parameter 'nope'"):
            spec.resolve_params({"nope": 3})

    def test_unknown_parameter_suggests_close_matches(self):
        spec = _spec(params=[ParamSpec("num_windows", "int", 15)])
        with pytest.raises(UnknownParameterError,
                           match="Did you mean: num_windows"):
            spec.resolve_params({"num_widnows": 3})

    def test_overrides_are_coerced_to_canonical_types(self):
        spec = _spec(params=[ParamSpec("n", "int", 1),
                             ParamSpec("x", "float", 0.5)])
        assert spec.resolve_params({"n": "4", "x": 2}) == {"n": 4, "x": 2.0}

    def test_out_of_domain_value_names_experiment_param_and_domain(self):
        spec = _spec(params=[ParamSpec("n", "int", 1, minimum=1, maximum=9)])
        with pytest.raises(ParameterValueError) as excinfo:
            spec.resolve_params({"n": 99})
        message = str(excinfo.value)
        assert "'demo'" in message and "'n'" in message
        assert "int in [1, 9]" in message

    def test_defaults_come_from_the_schema(self):
        spec = _spec(params=[ParamSpec("a", "int", 1)])
        assert spec.resolve_params() == {"a": 1}


class TestDefaultRegistry:
    def test_contains_every_paper_experiment(self):
        names = default_registry().names()
        for expected in ("fig3_radio", "fig4_ber", "fig6_csma", "fig7_link",
                         "fig8_packet", "fig9_breakdown", "case_study",
                         "improvements", "model_vs_sim", "contention_table"):
            assert expected in names

    def test_specs_are_documented(self):
        for spec in default_registry():
            assert spec.title
            assert spec.figure
            assert spec.output_names

    def test_is_built_once(self):
        assert default_registry() is default_registry()

    def test_round_trips_through_pickle(self):
        """Process-pool sweeps ship the registry to their workers; the
        catalogue's lazy adapters must pickle and still resolve there."""
        import pickle
        clone = pickle.loads(pickle.dumps(default_registry()))
        assert clone.names() == default_registry().names()
        for spec in clone:
            assert spec.runner.resolve() is \
                default_registry().get(spec.name).runner.resolve()

    def test_every_experiment_exposes_a_non_empty_typed_schema(self):
        """Acceptance: no registered experiment is stringly-typed — every
        parameter carries a declared type, default and domain."""
        for spec in default_registry():
            assert len(spec.schema) > 0, spec.name
            for param in spec.schema:
                assert param.type != "any", (spec.name, param.name)
                assert param.domain()

    def test_fig3_pins_the_papers_idle_goal_ratio(self):
        """The 'idle / scavenging goal' row must anchor on the paper's
        literal 7.0 claim — not a rescaling of the measurement — so the
        comparison can actually fail if the CC2420 model drifts."""
        from repro.runner.engine import run_experiment
        run = run_experiment("fig3_radio", cache=False)
        row = [r for r in run.rows if "scavenging goal" in r["quantity"]][0]
        assert row["paper_value"] == 7.0
        assert row["within_tolerance"]

    def test_schema_defaults_resolve_cleanly(self):
        """Every declared default passes its own validation (the schema
        constructor coerces them; resolve() must return them unchanged)."""
        for spec in default_registry():
            assert spec.resolve_params() == spec.schema.defaults()
