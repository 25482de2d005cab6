"""Tests of the first-class RunResult object."""

import json

import pytest

from repro.runner import RunResult, run_experiment

#: Deliberately tiny fig6 grid so the Monte-Carlo stays fast in CI.
TINY_FIG6 = {"loads": [0.2, 0.6], "payload_sizes": [20],
             "num_windows": 2, "num_nodes": 20}


@pytest.fixture(scope="module")
def result():
    return run_experiment("fig6_csma", params=TINY_FIG6, cache=False, seed=7)


class TestAccessors:
    def test_identity_and_provenance(self, result):
        assert isinstance(result, RunResult)
        assert result.experiment == "fig6_csma"
        assert result.params["num_windows"] == 2
        assert result.seed == 7
        assert len(result.cache_key) == 64
        assert len(result.code_version) == 16
        assert not result.cache_hit

    def test_rows_and_columns(self, result):
        assert len(result.rows) == 2
        assert result.column("load") == [0.2, 0.6]
        assert all(isinstance(v, float) for v in result.column("pr_cf"))

    def test_unknown_column_suggests(self, result):
        with pytest.raises(KeyError, match="Did you mean: pr_cf"):
            result.column("pr_fc")

    def test_unknown_column_message(self, result):
        with pytest.raises(KeyError) as error:
            result.column("pr_fc")
        assert error.value.args[0] == (
            "Experiment 'fig6_csma' result has no column 'pr_fc'; "
            "available: payload_bytes, load, on_air_bytes, t_cont_s, n_cca, "
            "pr_col, pr_cf. Did you mean: pr_cf, pr_col?")

    def test_output_names_match_the_spec(self, result):
        assert result.output_names == result.spec.output_names
        assert set(result.csv_columns()) == set(result.output_names)

    def test_report_accessor(self, result):
        assert result.report is not None
        assert result.report["experiment_id"] == "EXP-F6"

    def test_metrics_are_scalars_only(self):
        run = run_experiment("fig4_ber", cache=False, seed=7,
                             params={"bench_bits_per_point": 1000})
        assert set(run.metrics) == {"fitted_coefficient", "fitted_exponent"}
        assert isinstance(run.metric("fitted_exponent"), float)
        with pytest.raises(KeyError) as error:
            run.metric("fitted_exponnent")
        assert error.value.args[0] == (
            "Experiment 'fig4_ber' result has no metric 'fitted_exponnent'; "
            "available: fitted_coefficient, fitted_exponent. "
            "Did you mean: fitted_exponent, fitted_coefficient?")


class TestSerialisation:
    def test_to_json_is_the_rows_as_deterministic_json(self, result):
        rows = json.loads(result.to_json())
        assert rows == json.loads(json.dumps(result.rows))
        assert result.to_json() == result.to_json()

    def test_to_csv_leads_with_declared_output_names(self, result):
        lines = result.to_csv().splitlines()
        assert lines[0] == ",".join(result.csv_columns())
        assert lines[0].startswith("payload_bytes,load,")
        assert len(lines) == 3

    def test_to_table_renders_every_column(self, result):
        table = result.to_table()
        assert "fig6_csma" in table
        for column in result.csv_columns():
            assert column in table

    def test_empty_rows_render_placeholder(self, result):
        empty = RunResult(spec=result.spec, params={}, seed=0, jobs=1,
                          cache_hit=False, cache_key="0" * 64,
                          code_version="x" * 16, elapsed_s=0.0,
                          payload={"rows": []})
        assert empty.to_table() == "(no rows)"


class TestEquality:
    def test_cache_hit_replay_is_equal(self, tmp_path):
        cold = run_experiment("fig6_csma", params=TINY_FIG6,
                              cache_root=tmp_path, seed=7)
        warm = run_experiment("fig6_csma", params=TINY_FIG6, jobs=2,
                              cache_root=tmp_path, seed=7)
        assert not cold.cache_hit and warm.cache_hit
        assert cold == warm  # equality ignores cache_hit / jobs / elapsed

    def test_different_seeds_are_not_equal(self):
        a = run_experiment("fig6_csma", params=TINY_FIG6, cache=False, seed=1)
        b = run_experiment("fig6_csma", params=TINY_FIG6, cache=False, seed=2)
        assert a != b

    def test_not_equal_to_other_types(self, result):
        assert result != {"rows": result.rows}
