"""The ``BENCH_*.json`` perf-trajectory records and their CI gate.

Unit level: record assembly, the schema's deterministic key order, the
file writer's clobber guards and the speedup comparison behind
``python -m repro bench --check``.  The CLI tests drive the real bench
cases in quick mode (sub-second workloads) end to end.
"""

import json
import time

import pytest

from repro.bench import cases
from repro.bench.trajectory import (DEFAULT_TOLERANCE, SCHEMA_VERSION,
                                    bench_path, build_record,
                                    compare_records, git_sha,
                                    machine_fingerprint, read_record,
                                    write_record)

#: Key order the schema promises — provenance last, so regenerated
#: baselines diff minimally.
SCHEMA_KEYS = ("schema_version", "experiment", "mode", "params",
               "timings_s", "speedup", "git_sha", "machine")


def record(experiment="demo", mode="full", speedup=5.0):
    return build_record(
        experiment=experiment, mode=mode,
        params={"nodes": 8, "seed": 2005},
        timings_s={"event": {"median_s": 1.0, "runs": 1},
                   "batched": {"median_s": 0.2, "runs": 3}},
        speedup={"batched_vs_event": speedup},
        sha="abc1234", machine={"platform": "test"})


class TestRecordSchema:
    def test_schema_key_order_is_deterministic(self):
        assert tuple(record()) == SCHEMA_KEYS
        assert record()["schema_version"] == SCHEMA_VERSION

    def test_round_trip_preserves_contents_and_order(self, tmp_path):
        original = record()
        path = write_record(original, bench_path(tmp_path, "demo"))
        loaded = read_record(path)
        assert loaded == original
        assert tuple(loaded) == SCHEMA_KEYS

    def test_no_timestamp_regenerating_is_a_no_op_diff(self, tmp_path):
        path = write_record(record(), bench_path(tmp_path, "demo"))
        first = path.read_text()
        write_record(record(), path)
        assert path.read_text() == first

    def test_bench_path_names_follow_the_mode(self, tmp_path):
        assert bench_path(tmp_path, "demo").name == "BENCH_demo.json"
        assert bench_path(tmp_path, "demo", mode="quick").name == \
            "BENCH_demo_quick.json"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            record(mode="fast")

    def test_provenance_defaults_are_filled_in(self):
        built = build_record(experiment="demo", mode="quick", params={},
                             timings_s={}, speedup={})
        assert built["git_sha"] == git_sha()
        assert set(built["machine"]) == set(machine_fingerprint())

    def test_git_sha_unknown_outside_a_repository(self, tmp_path):
        assert git_sha(str(tmp_path)) == "unknown"


class TestKernelTiming:
    @staticmethod
    def fake_run(calls, seconds):
        """A stand-in for a case's ``run(backend)`` that logs its calls."""
        def run(kernel):
            calls.append(kernel)
            time.sleep(seconds[kernel])
        return run

    def test_each_kernel_runs_its_repeat_count(self, monkeypatch):
        monkeypatch.setattr(cases, "MIN_SAMPLED_S", 0.0)
        calls = []
        timings, _, breakdown = cases._time_kernels(
            self.fake_run(calls, {"event": 0.0, "batched": 0.0}), 5, 2,
            phases=False)
        assert sorted(calls) == ["batched"] * 5 + ["event"] * 2
        assert {kernel: entry["runs"] for kernel, entry in timings.items()} \
            == {"event": 2, "batched": 5}
        assert min(entry["median_s"] for entry in timings.values()) >= 0.0
        assert breakdown is None
        with pytest.raises(ValueError):
            cases._time_kernels(self.fake_run([], {}), 0, 1, phases=False)

    def test_fast_kernels_sample_the_floor_interleaved(self, monkeypatch):
        """Kernels much faster than the floor run past their repeat count
        until their samples add up to it, and their runs interleave: the
        batched kernel starts before the event kernel's samples end."""
        monkeypatch.setattr(cases, "MIN_SAMPLED_S", 0.05)
        calls = []
        timings, speedup, _ = cases._time_kernels(
            self.fake_run(calls, {"event": 0.004, "batched": 0.001}), 3, 3,
            phases=False)
        assert timings["batched"]["runs"] > timings["event"]["runs"] > 3
        last_event = max(i for i, kernel in enumerate(calls)
                         if kernel == "event")
        assert calls.index("batched") < last_event
        assert speedup["batched_vs_event"] > 1.0


class TestWriterClobberGuards:
    def test_refuses_cross_experiment_overwrite(self, tmp_path):
        path = write_record(record("demo"), bench_path(tmp_path, "demo"))
        with pytest.raises(ValueError, match="refusing to overwrite"):
            write_record(record("other"), path)
        assert read_record(path)["experiment"] == "demo"  # untouched

    def test_refuses_cross_mode_overwrite(self, tmp_path):
        path = write_record(record(mode="full"), bench_path(tmp_path, "demo"))
        with pytest.raises(ValueError, match="mode"):
            write_record(record(mode="quick"), path)
        assert read_record(path)["mode"] == "full"

    def test_same_experiment_refresh_is_allowed(self, tmp_path):
        path = write_record(record(speedup=5.0), bench_path(tmp_path, "demo"))
        write_record(record(speedup=6.0), path)
        assert read_record(path)["speedup"]["batched_vs_event"] == 6.0

    def test_creates_missing_directories(self, tmp_path):
        path = write_record(record(), bench_path(tmp_path / "a" / "b", "demo"))
        assert path.exists()


class TestComparisonGate:
    def test_within_tolerance_passes(self):
        assert compare_records(record(speedup=3.0), record(speedup=5.0),
                               tolerance=2.0) == []

    def test_regression_beyond_tolerance_reports(self):
        problems = compare_records(record(speedup=2.0), record(speedup=5.0),
                                   tolerance=2.0)
        assert len(problems) == 1
        assert "batched_vs_event" in problems[0]
        assert "2.00x" in problems[0] and "5.00x" in problems[0]

    def test_keys_missing_from_the_baseline_are_ignored(self):
        baseline = record()
        baseline["speedup"] = {}
        assert compare_records(record(speedup=0.1), baseline) == []

    def test_baseline_key_missing_from_the_fresh_record_regresses(self):
        """A renamed or dropped ratio must fail the gate, not pass it with
        nothing compared."""
        fresh = record(speedup=5.0)
        fresh["speedup"] = {"renamed_vs_event": 5.0}
        problems = compare_records(fresh, record(speedup=5.0))
        assert len(problems) == 1
        assert "batched_vs_event" in problems[0]
        assert "missing" in problems[0]

    def test_experiment_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="Cannot compare"):
            compare_records(record("demo"), record("other"))

    def test_mode_mismatch_is_an_error_not_a_regression(self):
        with pytest.raises(ValueError, match="mode"):
            compare_records(record(mode="quick"), record(mode="full"))

    def test_tolerance_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="tolerance"):
            compare_records(record(), record(), tolerance=0.5)

    def test_default_tolerance_is_two(self):
        assert DEFAULT_TOLERANCE == 2.0


class TestBenchCases:
    def test_case_study_quick_record_covers_every_kernel(self):
        from repro.bench.cases import BENCH_SEED, run_bench_case

        built = run_bench_case("case_study_full", quick=True, repeats=1)
        assert built["experiment"] == "case_study_full"
        assert built["mode"] == "quick"
        assert built["params"]["seed"] == BENCH_SEED
        assert set(built["timings_s"]) == {"event", "batched"}
        assert set(built["speedup"]) == {"batched_vs_event"}
        assert all(value > 0 for value in built["speedup"].values())

    def test_unknown_case_raises_with_choices(self):
        from repro.bench.cases import run_bench_case

        with pytest.raises(ValueError, match="case_study_full"):
            run_bench_case("warp-drive")


class TestBenchCli:
    """End-to-end ``python -m repro bench`` in quick mode."""

    def test_quick_run_writes_quick_records(self, tmp_path, capsys):
        from repro.runner.cli import main

        assert main(["bench", "vectorized_channel", "--quick",
                     "--repeats", "1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "vectorized_channel [quick]" in out
        path = tmp_path / "BENCH_vectorized_channel_quick.json"
        loaded = json.loads(path.read_text())
        assert tuple(loaded) == SCHEMA_KEYS
        assert loaded["mode"] == "quick"
        assert loaded["speedup"]["batched_vs_event"] > 1.0

    def test_check_flags_missing_baseline(self, tmp_path, capsys):
        from repro.runner.cli import main

        assert main(["bench", "vectorized_channel", "--quick",
                     "--repeats", "1", "--out", str(tmp_path),
                     "--baseline-dir", str(tmp_path / "nowhere"),
                     "--check"]) == 1
        assert "no committed baseline" in capsys.readouterr().err

    def test_check_passes_against_a_matching_baseline(self, tmp_path,
                                                      capsys):
        from repro.runner.cli import main

        out_dir = tmp_path / "fresh"
        args = ["bench", "vectorized_channel", "--quick", "--repeats", "1",
                "--out", str(out_dir)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--baseline-dir", str(out_dir),
                            "--check"]) == 0
        assert "perf trajectory OK" in capsys.readouterr().out

    def test_check_fails_on_a_regressed_speedup(self, tmp_path, capsys):
        from repro.runner.cli import main

        out_dir = tmp_path / "fresh"
        baseline_dir = tmp_path / "baseline"
        assert main(["bench", "vectorized_channel", "--quick",
                     "--repeats", "1", "--out", str(out_dir)]) == 0
        fresh = read_record(bench_path(out_dir, "vectorized_channel",
                                       mode="quick"))
        inflated = dict(fresh)
        inflated["speedup"] = {key: value * 10.0 for key, value
                               in fresh["speedup"].items()}
        write_record(inflated, bench_path(baseline_dir, "vectorized_channel",
                                          mode="quick"))
        capsys.readouterr()
        assert main(["bench", "vectorized_channel", "--quick",
                     "--repeats", "1", "--out", str(out_dir),
                     "--baseline-dir", str(baseline_dir), "--check"]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_unknown_case_rejected(self, capsys):
        from repro.runner.cli import main

        assert main(["bench", "warp-drive"]) == 2
        assert "unknown bench case" in capsys.readouterr().err

    def test_repeats_must_be_positive(self, capsys):
        from repro.runner.cli import main

        assert main(["bench", "--repeats", "0"]) == 2
        assert "--repeats" in capsys.readouterr().err
