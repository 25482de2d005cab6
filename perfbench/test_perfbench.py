"""Smoke tests of the benchmark itself (tiny sizes, a few seconds each).

Run from the checkout root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import paper_cli  # noqa: E402
import run  # noqa: E402
from common import Context, Outcome  # noqa: E402
from probes import Ledger, unit_of  # noqa: E402


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {metric["name"]: metric["unit"]
                for metric in _benchmark()[section]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        values = {name: metric["value"]
                  for name, metric in result["metrics"].items()}
        attributed = sum(value for name, value in values.items()
                         if name.startswith("self."))
        assert attributed + values["trace.unattributed_s"] == \
            pytest.approx(values["trace.wall_s"])
        assert values["trace.unattributed_s"] >= -1e-6
    else:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_missing_sources_fail_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    completed = _run("dense_sim", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert not completed.stdout.strip()


def test_corrupted_warm_output_counts_as_failure(tmp_path):
    ctx = Context(root=ROOT, workspace=tmp_path, seed=3, seconds=0,
                  size="tiny")
    calls = []

    def corrupting(ctx, name, extra, seed, cache, trace=None):
        wall, code, text = paper_cli.invoke(ctx, name, extra, seed, cache,
                                            trace)
        calls.append(name)
        if len(calls) > len(paper_cli.TINY_ARGS):  # a warm invocation
            text = text.replace("true", "false", 1) + " "
        return wall, code, text

    outcome = Outcome()
    paper_cli.run_pass(ctx, dict(paper_cli.TINY_ARGS), 3, outcome,
                       call=corrupting)
    assert outcome.attempted == 3 * len(paper_cli.TINY_ARGS)
    assert outcome.failed == paper_cli.WARM_REPEATS * len(paper_cli.TINY_ARGS)


def test_rows_check_rejects_out_of_tolerance_rows():
    good = [{"paper_value": 1.0, "within_tolerance": True},
            {"paper_value": None, "within_tolerance": None}]
    bad = [{"paper_value": 1.0, "within_tolerance": False}]
    assert paper_cli.rows_ok(json.dumps(good))
    assert not paper_cli.rows_ok(json.dumps(bad))
    assert not paper_cli.rows_ok("not json")


def test_ledger_self_times_add_up():
    spans = [
        {"id": 0, "parent": None, "name": "session", "kind": "root",
         "duration": 9.0},
        {"id": 1, "parent": 0, "name": "run:x", "kind": "run",
         "duration": 5.0},
        {"id": 2, "parent": 1, "name": "driver:x", "kind": "driver",
         "duration": 4.0},
        {"id": 3, "parent": 2, "name": "task[0]", "kind": "task",
         "duration": 1.5},
        {"id": 4, "parent": 2, "name": "bench:network.simulate",
         "kind": "bench", "duration": 2.0, "counters": {"attempted": 10,
                                                        "delivered": 8}},
        {"id": 5, "parent": 4, "name": "kernel:batched", "kind": "kernel",
         "duration": 1.5, "counters": {"lanes": 2, "devices": 4,
                                       "rounds": 3}},
    ]
    ledger = Ledger()
    assert ledger.add_tree(spans) == 5.0
    metrics = ledger.metrics(6.0)
    assert metrics["self.runner_s"] == 1.0
    assert metrics["self.driver_s"] == 2.0  # the task inherits the driver
    assert metrics["self.network_s"] == 0.5
    assert metrics["self.mac_s"] == 1.5
    assert metrics["network.lane_build_s"] == 0.5
    assert metrics["mac.delivered_per_attempt"] == 0.8
    assert metrics["mac.us_per_device_round"] == pytest.approx(1.5e6 / 12)
    assert metrics["trace.unattributed_s"] == 1.0
    assert unit_of("mac.us_per_device_round") == "us"
