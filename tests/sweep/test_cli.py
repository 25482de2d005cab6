"""Smoke tests of the ``python -m repro sweep`` command tree."""

import json

import pytest

from repro.runner.cli import build_parser, main


class TestLayering:
    def test_runner_cli_imports_without_the_sweep_package(self):
        """The runner sits *below* repro.sweep in the layering: importing
        it must not pull the sweep package in (only build_parser/main do,
        lazily)."""
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [sys.executable, "-c",
             "import sys; import repro.runner.cli; "
             "assert not any(m.startswith('repro.sweep') for m in sys.modules), "
             "sorted(m for m in sys.modules if m.startswith('repro.sweep'))"],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
        assert completed.returncode == 0, completed.stderr


class TestParser:
    def test_sweep_run_defaults(self):
        arguments = build_parser().parse_args(
            ["sweep", "run", "node_density"])
        assert arguments.command == "sweep"
        assert arguments.sweep_command == "run"
        assert arguments.sweep == "node_density"
        assert arguments.jobs is None
        assert not arguments.quick

    def test_sweep_export_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "export", "node_density"])

    def test_sweep_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        assert "node_density" in out
        assert "duty_cycle" in out
        assert "tx_policy" in out

    def test_list_verbose_shows_axes_and_objectives(self, capsys):
        assert main(["sweep", "list", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "axis total_nodes" in out
        assert "objective mean_power_uw: min" in out

    def test_run_then_rerun_hits_cache(self, tmp_path, capsys):
        args = ["sweep", "run", "node_density", "--quick",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "3 points (3 computed, 0 from cache)" in first
        assert "Pareto front" in first
        assert "knee point" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "(0 computed, 3 from cache)" in second

    def test_run_quiet_prints_summary_only(self, tmp_path, capsys):
        assert main(["sweep", "run", "tx_policy", "--quick", "--quiet",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Pareto front" not in out
        assert "sweep tx_policy:" in out

    def test_run_with_export_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["sweep", "run", "node_density", "--quick", "--quiet",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--export", str(out_dir)]) == 0
        assert (out_dir / "node_density.csv").is_file()
        manifest = json.loads(
            (out_dir / "node_density.manifest.json").read_text())
        assert manifest["num_points"] == 3

    def test_status_before_and_after_run(self, tmp_path, capsys):
        cache_args = ["--cache-dir", str(tmp_path)]
        assert main(["sweep", "status", "node_density", "--quick",
                     *cache_args]) == 0
        assert "0/3 points cached" in capsys.readouterr().out
        assert main(["sweep", "run", "node_density", "--quick", "--quiet",
                     *cache_args]) == 0
        capsys.readouterr()
        assert main(["sweep", "status", "node_density", "--quick",
                     *cache_args]) == 0
        out = capsys.readouterr().out
        assert "3/3 points cached" in out
        assert out.count("done") == 3

    def test_export_command(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["sweep", "export", "tx_policy", "--quick",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "exported 2 points" in out
        for suffix in (".csv", ".long.csv", ".json", ".manifest.json"):
            assert (out_dir / f"tx_policy{suffix}").is_file()

    def test_export_twice_is_byte_identical(self, tmp_path, capsys):
        """Acceptance: export after a cold run and after a warm re-run
        produce identical bytes (stable spec hash included)."""
        cache = str(tmp_path / "cache")
        first_dir, second_dir = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "export", "node_density", "--quick",
                     "--cache-dir", cache, "--out", str(first_dir)]) == 0
        assert main(["sweep", "export", "node_density", "--quick",
                     "--cache-dir", cache, "--out", str(second_dir)]) == 0
        capsys.readouterr()
        for suffix in (".csv", ".long.csv", ".json", ".manifest.json"):
            name = f"node_density{suffix}"
            assert (first_dir / name).read_bytes() == \
                (second_dir / name).read_bytes(), name

    def test_unknown_sweep_fails_with_suggestion(self, tmp_path, capsys):
        assert main(["sweep", "run", "node_densty",
                     "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Unknown sweep" in err
        assert "node_density" in err


class TestSweepParamOverrides:
    """The shared --param flag on the sweep command tree."""

    def test_param_overrides_base_parameters(self, tmp_path, capsys):
        assert main(["sweep", "run", "node_density", "--quick", "--quiet",
                     "--cache-dir", str(tmp_path),
                     "--param", "superframes=2"]) == 0
        assert "3 points (3 computed" in capsys.readouterr().out

    def test_param_changes_the_spec_hash(self, tmp_path, capsys):
        base = ["sweep", "status", "node_density", "--quick",
                "--cache-dir", str(tmp_path)]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main([*base, "--param", "superframes=2"]) == 0
        overridden = capsys.readouterr().out

        def spec_hash(text):
            return [line.split("spec_hash=")[1].strip()
                    for line in text.splitlines() if "spec_hash=" in line][0]

        assert spec_hash(plain) != spec_hash(overridden)

    def test_unknown_param_fails_with_suggestion(self, tmp_path, capsys):
        assert main(["sweep", "run", "node_density", "--quick",
                     "--cache-dir", str(tmp_path),
                     "--param", "superfames=2"]) == 2
        err = capsys.readouterr().err
        assert "no parameter 'superfames'" in err
        assert "Did you mean: superframes" in err

    def test_out_of_domain_param_fails_with_the_domain(self, tmp_path,
                                                       capsys):
        assert main(["sweep", "run", "node_density", "--quick",
                     "--cache-dir", str(tmp_path),
                     "--param", "beacon_order=99"]) == 2
        err = capsys.readouterr().err
        assert "case_study_full" in err
        assert "int in [0, 14]" in err

    def test_axis_parameters_cannot_be_overridden(self, tmp_path, capsys):
        assert main(["sweep", "run", "node_density", "--quick",
                     "--cache-dir", str(tmp_path),
                     "--param", "total_nodes=8"]) == 2
        assert "axis" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_parser_defaults(self):
        arguments = build_parser().parse_args(
            ["sweep", "optimize", "case_study_power"])
        assert arguments.sweep_command == "optimize"
        assert arguments.optimizer == "case_study_power"
        assert arguments.jobs is None
        assert not arguments.quick

    def test_list_shows_registered_optimizers(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        assert "Registered optimizers" in out
        assert "case_study_power" in out
        assert "case_study_power_grid" in out

    def test_optimize_then_rerun_hits_cache(self, tmp_path, capsys):
        """Acceptance: a warm re-run replays the proposal sequence from
        the cache and recomputes nothing (the CI smoke greps this line)."""
        args = ["sweep", "optimize", "case_study_power", "--quick",
                "--quiet", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "optimize case_study_power:" in first
        assert "(6 computed, 0 from cache)" in first
        assert "stop=" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "(0 computed, 6 from cache)" in second

    def test_grid_serves_every_optimizer_point_from_the_cache(self, tmp_path,
                                                              capsys):
        """The optimizer searches its reference sweep's grid: the grid
        then computes only the points the optimizer did not."""
        cache = ["--quick", "--quiet", "--cache-dir", str(tmp_path)]
        assert main(["sweep", "optimize", "case_study_power", *cache]) == 0
        assert main(["sweep", "run", "case_study_power_grid", *cache]) == 0
        assert "(6 computed, 6 from cache)" in capsys.readouterr().out

    def test_optimize_prints_front_and_knee(self, tmp_path, capsys):
        assert main(["sweep", "optimize", "case_study_power", "--quick",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
        assert "knee point" in out
        assert "beacon_order" in out

    def test_optimize_export_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["sweep", "optimize", "case_study_power", "--quick",
                     "--quiet", "--cache-dir", str(tmp_path / "cache"),
                     "--export", str(out_dir)]) == 0
        manifest = json.loads(
            (out_dir / "case_study_power.manifest.json").read_text())
        assert manifest["kind"] == "repro-optimize-manifest"
        assert manifest["num_points"] == 6
        assert (out_dir / "case_study_power.csv").is_file()
        assert (out_dir / "case_study_power.json").is_file()

    def test_unknown_optimizer_fails_with_suggestion(self, tmp_path,
                                                     capsys):
        assert main(["sweep", "optimize", "case_study_pwr",
                     "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Unknown optimizer" in err
        assert "case_study_power" in err

    def test_param_cannot_override_a_dimension(self, tmp_path, capsys):
        assert main(["sweep", "optimize", "case_study_power", "--quick",
                     "--cache-dir", str(tmp_path),
                     "--param", "beacon_order=5"]) == 2
        assert "varies beacon_order as axis" in capsys.readouterr().err
