"""Tests of the stable `repro.api` Session façade."""

import json

import pytest

import repro.api as api
from repro.runner.cli import main as cli_main

#: Deliberately tiny fig6 grid so the Monte-Carlo stays fast in CI.
TINY_FIG6 = {"loads": [0.2, 0.6], "payload_sizes": [20],
             "num_windows": 2, "num_nodes": 20}
TINY_FIG6_ARGS = ["--param", "loads=[0.2, 0.6]", "--param",
                  "payload_sizes=[20]", "--param", "num_windows=2",
                  "--param", "num_nodes=20"]


class TestSessionBasics:
    def test_run_returns_a_run_result(self, tmp_path):
        session = api.Session(cache_dir=tmp_path)
        result = session.run("fig6_csma", **TINY_FIG6)
        assert isinstance(result, api.RunResult)
        assert result.experiment == "fig6_csma"
        assert len(result.rows) == 2

    def test_session_policy_is_the_default_seed_and_jobs(self, tmp_path):
        session = api.Session(cache_dir=tmp_path, seed=123, jobs=2)
        result = session.run("fig6_csma", **TINY_FIG6)
        assert result.seed == 123
        assert result.jobs == 2
        override = session.run("fig6_csma", seed=7, jobs=1, **TINY_FIG6)
        assert override.seed == 7 and override.jobs == 1

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_invalid_seed_policy_is_rejected_at_construction(self, tmp_path,
                                                             seed):
        # Otherwise every seedless run or service job would be keyed under
        # the bad seed and fail only once it computes.
        with pytest.raises(ValueError, match=f"got {seed!r}"):
            api.Session(cache_dir=tmp_path / "cache", seed=seed)
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("seed", [None, 0, 2**40])
    def test_valid_seed_policy_is_kept(self, tmp_path, seed):
        assert api.Session(cache_dir=tmp_path, seed=seed).seed == seed

    def test_cache_property_is_the_store_runs_use(self, tmp_path):
        session = api.Session(cache_dir=tmp_path)
        assert str(session.cache.root) == str(tmp_path)
        assert len(session.cache) == 0
        result = session.run("fig6_csma", **TINY_FIG6)
        assert result.cache_key in set(session.cache.keys())

    def test_cache_false_disables_caching(self, tmp_path):
        session = api.Session(cache=False)
        result = session.run("fig6_csma", **TINY_FIG6)
        assert not result.cache_hit
        assert session.cache.load(result.cache_key) is None

    def test_experiments_lists_the_catalogue(self):
        session = api.Session(cache=False)
        names = [spec.name for spec in session.experiments()]
        assert names == sorted(names)
        assert "fig6_csma" in names and "case_study_full" in names
        for spec in session.experiments():
            assert len(spec.schema) > 0

    def test_experiment_lookup_suggests(self):
        session = api.Session(cache=False)
        assert session.experiment("fig6_csma").name == "fig6_csma"
        with pytest.raises(api.UnknownExperimentError, match="Did you mean"):
            session.experiment("fig6")

    def test_unknown_parameter_keyword_suggests(self):
        session = api.Session(cache=False)
        with pytest.raises(api.UnknownParameterError,
                           match="Did you mean: num_windows"):
            session.run("fig6_csma", num_widnows=2)

    def test_out_of_domain_keyword_names_the_domain(self):
        session = api.Session(cache=False)
        with pytest.raises(api.ParameterValueError, match="int in \\[0, 14\\]"):
            session.run("case_study_full", beacon_order=99)


class TestRoundTrip:
    def test_to_json_is_byte_identical_to_the_cli(self, tmp_path, capsys):
        """Satellite: Session.run -> RunResult.to_json is byte-identical to
        ``python -m repro run --output json`` for the same run."""
        session = api.Session(cache_dir=tmp_path / "cache")
        result = session.run("fig6_csma", **TINY_FIG6)
        assert cli_main(["run", "fig6_csma", *TINY_FIG6_ARGS,
                         "--cache-dir", str(tmp_path / "cache"),
                         "--output", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == result.to_json().encode()
        assert "[cache]" in captured.err  # same params + seed -> same key

    def test_cache_hit_returns_an_equal_result(self, tmp_path):
        """Satellite: a warm Session.run returns a RunResult equal to the
        one that populated the cache."""
        session = api.Session(cache_dir=tmp_path)
        cold = session.run("fig6_csma", **TINY_FIG6)
        warm = session.run("fig6_csma", **TINY_FIG6)
        assert not cold.cache_hit and warm.cache_hit
        assert warm == cold
        assert warm.to_json() == cold.to_json()

    def test_sessions_share_artifacts_with_the_engine(self, tmp_path):
        from repro.runner import run_experiment
        session = api.Session(cache_dir=tmp_path)
        first = session.run("fig6_csma", **TINY_FIG6)
        engine = run_experiment("fig6_csma", params=TINY_FIG6,
                                cache_root=tmp_path)
        assert engine.cache_hit
        assert engine == first


class TestSessionSweep:
    def tiny_spec(self):
        return api.SweepSpec(
            name="tiny_api", experiment="case_study_full",
            axes={"total_nodes": api.GridAxis((8, 16))},
            base_params={"num_channels": 1, "superframes": 2},
            objectives={"mean_power_uw": "min"})

    def test_sweep_runs_a_spec_through_the_session_cache(self, tmp_path):
        session = api.Session(cache_dir=tmp_path)
        result = session.sweep(self.tiny_spec())
        assert len(result.rows) == 2
        assert result.computed_points == 2
        again = session.sweep(self.tiny_spec())
        assert again.computed_points == 0  # resumed from the session cache
        assert again.rows == result.rows

    def test_sweep_status_reports_occupancy(self, tmp_path):
        session = api.Session(cache_dir=tmp_path)
        assert session.sweep_status(self.tiny_spec()).done_count == 0
        session.sweep(self.tiny_spec())
        assert session.sweep_status(self.tiny_spec()).done_count == 2

    def test_sweep_accepts_catalogue_names(self, tmp_path):
        session = api.Session(cache_dir=tmp_path)
        status = session.sweep_status("node_density", quick=True)
        assert len(status.points) == 3

    def test_quick_flag_requires_a_catalogue_name(self):
        session = api.Session(cache=False)
        with pytest.raises(ValueError, match="quick"):
            session.sweep(self.tiny_spec(), quick=True)

    def test_invalid_sweep_spec_fails_at_build_time(self):
        """Acceptance: the façade rejects an invalid design space before
        any compute, naming experiment, parameter and domain."""
        with pytest.raises(api.ParameterValueError) as excinfo:
            api.SweepSpec(name="bad", experiment="case_study_full",
                          axes={"payload_bytes": api.GridAxis((50, 500))})
        message = str(excinfo.value)
        assert "case_study_full" in message
        assert "payload_bytes" in message
        assert "int in [1, 127]" in message


class TestSessionOptimize:
    def test_optimize_runs_through_the_session_cache(self, tmp_path):
        session = api.Session(cache_dir=tmp_path)
        result = session.optimize("case_study_power", quick=True)
        assert result.computed_points == len(result.points) == 6
        assert result.knee() is not None
        again = session.optimize("case_study_power", quick=True)
        assert again.computed_points == 0  # resumed from the session cache
        assert again.rows == result.rows

    def test_optimize_accepts_explicit_specs(self, tmp_path):
        session = api.Session(cache_dir=tmp_path)
        spec = api.OptimizeSpec(
            name="mini", experiment="case_study_full",
            dimensions={"beacon_order": api.IntDimension(3, 5)},
            objectives={"mean_power_uw": "min"},
            base_params={"total_nodes": 8, "num_channels": 1,
                         "superframes": 2},
            max_points=2, initial_points=2, batch_size=1)
        result = session.optimize(spec)
        assert len(result.points) == 2

    def test_quick_flag_requires_a_catalogue_name(self):
        session = api.Session(cache=False)
        spec = api.OptimizeSpec(
            name="mini", experiment="case_study_full",
            dimensions={"beacon_order": api.IntDimension(3, 5)},
            objectives={"mean_power_uw": "min"},
            max_points=2, initial_points=2)
        with pytest.raises(ValueError, match="quick"):
            session.optimize(spec, quick=True)

    def test_unknown_optimizer_suggests(self, tmp_path):
        session = api.Session(cache_dir=tmp_path)
        with pytest.raises(api.UnknownOptimizeError, match="case_study_power"):
            session.optimize("case_study_pwr", quick=True)
