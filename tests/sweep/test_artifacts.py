"""Tests of the artifact writers: CSV/JSON rows, manifest, reproducibility."""

import json

import pytest

from repro.analysis.io import (ordered_columns, rows_to_csv_text,
                               rows_to_json_text, write_rows)
from repro.sweep.artifacts import export_sweep, sweep_manifest
from repro.sweep.driver import run_sweep
from repro.sweep.optimize import run_optimize
from repro.sweep.spec import GridAxis, OptimizeSpec, SweepSpec

SPEC = SweepSpec(
    name="mini", experiment="case_study_full",
    axes={"total_nodes": GridAxis((8, 16))},
    base_params={"num_channels": 1, "superframes": 2},
    objectives={"mean_power_uw": "min"})

ROWS = [{"a": 1, "b": 2.5}, {"a": 3, "b": None, "c": "x,y"}]


class TestRowWriters:
    def test_ordered_columns_union_first_seen(self):
        assert ordered_columns(ROWS) == ["a", "b", "c"]

    def test_csv_text_quotes_and_blanks(self):
        text = rows_to_csv_text(ROWS)
        lines = text.splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,2.5,"
        assert lines[2] == '3,,"x,y"'

    def test_csv_explicit_columns(self):
        text = rows_to_csv_text(ROWS, columns=["b", "a"])
        assert text.splitlines()[0] == "b,a"

    def test_json_text_round_trips(self):
        assert json.loads(rows_to_json_text(ROWS)) == ROWS

    def test_write_rows_infers_format_from_extension(self, tmp_path):
        json_path = write_rows(ROWS, tmp_path / "rows.json")
        csv_path = write_rows(ROWS, tmp_path / "rows.csv")
        assert json.loads(json_path.read_text()) == ROWS
        assert csv_path.read_text().startswith("a,b,c\n")

    def test_write_rows_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="Unknown row format"):
            write_rows(ROWS, tmp_path / "rows.csv", fmt="parquet")


class TestManifestAndExport:
    @pytest.fixture(scope="class")
    def cache_root(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cache")

    @pytest.fixture(scope="class")
    def result(self, cache_root):
        return run_sweep(SPEC, cache_root=cache_root)

    def test_manifest_contents(self, result):
        manifest = sweep_manifest(result)
        assert manifest["kind"] == "repro-sweep-manifest"
        assert manifest["spec_hash"] == SPEC.spec_hash()
        assert manifest["experiment"] == "case_study_full"
        assert manifest["seed"] == SPEC.seed
        assert manifest["num_points"] == 2
        assert len(manifest["points"]) == 2
        assert manifest["points"][0]["cache_key"] == \
            result.points[0].cache_key
        assert "mean_power_uw" in manifest["metric_names"]

    def test_manifest_never_embeds_wall_clock(self, result):
        """Byte-for-byte reproducibility: nothing run-dependent may leak
        into the manifest."""
        text = json.dumps(sweep_manifest(result))
        assert "elapsed" not in text
        assert "cache_hit" not in text

    def test_export_writes_all_artifacts(self, result, tmp_path):
        paths = export_sweep(result, tmp_path)
        assert sorted(paths) == ["csv", "json", "long_csv", "manifest"]
        for path in paths.values():
            assert path.is_file()
        header = paths["csv"].read_text().splitlines()[0]
        assert header.startswith("point,total_nodes,")
        combined = json.loads(paths["json"].read_text())
        assert combined["manifest"]["spec_hash"] == SPEC.spec_hash()
        assert len(combined["rows"]) == 2
        long_header = paths["long_csv"].read_text().splitlines()[0]
        assert long_header == "point,total_nodes,metric,value"

    def test_exports_are_byte_identical_across_runs(self, result, cache_root,
                                                    tmp_path):
        """Acceptance: the cold run (``result``) and a cache-served re-run
        export the same bytes, and the manifest's spec hash is stable."""
        cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
        warm = run_sweep(SPEC, cache_root=cache_root)
        assert warm.computed_points == 0, "second run must be all cache"
        export_sweep(result, cold_dir)
        export_sweep(warm, warm_dir)
        for name in ("mini.csv", "mini.long.csv", "mini.json",
                     "mini.manifest.json"):
            assert (cold_dir / name).read_bytes() == \
                (warm_dir / name).read_bytes(), name


class TestOptimizerExport:
    def test_an_optimizer_run_keeps_its_own_layout(self, tmp_path):
        """One writer serves both kinds: an optimizer run exports no long
        table, its front and knee in the JSON, and its trajectory in the
        manifest, whose spec payload carries the grid axes."""
        spec = OptimizeSpec(name="mini_search", experiment=SPEC.experiment,
                            axes=SPEC.axes, base_params=SPEC.base_params,
                            objectives=SPEC.objectives, max_points=2,
                            initial_points=2)
        result = run_optimize(spec, cache_root=tmp_path / "cache")
        paths = export_sweep(result, tmp_path / "out")
        assert sorted(paths) == ["csv", "json", "manifest"]
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["kind"] == "repro-optimize-manifest"
        assert manifest["optimize"]["axes"] == \
            {"total_nodes": {"kind": "grid", "values": [8, 16]}}
        assert manifest["optimize"]["max_points"] == 2
        assert manifest["stop_reason"] == result.stop_reason
        assert len(manifest["rounds"]) == len(result.rounds)
        combined = json.loads(paths["json"].read_text())
        assert sorted(combined) == ["front", "knee", "manifest", "rows"]
        assert combined["knee"] == result.knee()
        # The same spec run as a grid is a sweep, served from the cache.
        grid = run_sweep(spec, cache_root=tmp_path / "cache")
        assert grid.computed_points == 0
        assert sweep_manifest(grid)["kind"] == "repro-sweep-manifest"


class TestExportFailsLoudlyOnUnknownObjective:
    def test_missing_objective_raises_with_suggestions(self, tmp_path):
        """Satellite contract: an objective no point produced must not
        export silent None columns (counted worst-possible by the Pareto
        helpers) — it fails loudly with a did-you-mean."""
        from repro.sweep.analysis import UnknownMetricError
        from repro.sweep.driver import run_sweep
        from repro.sweep.spec import GridAxis, SweepSpec

        spec = SweepSpec(
            name="typo", experiment="case_study_full",
            axes={"total_nodes": GridAxis((8,))},
            base_params={"num_channels": 1, "superframes": 2},
            objectives={"mean_power_uW": "min"})  # typo'd capital W
        result = run_sweep(spec, cache_root=tmp_path)
        with pytest.raises(UnknownMetricError) as excinfo:
            export_sweep(result, tmp_path / "out")
        message = str(excinfo.value)
        assert "mean_power_uW" in message
        assert "Did you mean" in message
        assert "mean_power_uw" in message
        assert not (tmp_path / "out").exists()
