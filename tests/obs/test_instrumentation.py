"""The zero-perturbation contract and the instrumented hot paths.

Three properties are pinned here:

* tracing on vs off yields byte-identical results for the same seed, for
  both MAC backends (``event`` and ``batched``);
* a serial trace equals a ``jobs=2`` trace under the deterministic view
  (worker ids, durations and meters are confined to ``"timing"``);
* the committed golden trace of a quick ``case_study_full`` run still
  matches a fresh run, span for span, counter for counter.
"""

import json
from pathlib import Path

import pytest

from repro.obs import (Tracer, activate, deterministic_view, read_trace,
                       render_report)
from repro.obs.trace import build_payload
from repro.runner.cache import ResultCache
from repro.runner.engine import run_experiment

GOLDEN = Path(__file__).parent / "goldens" / "case_study_full_quick_trace.json"

#: Quick workload of the golden trace — small enough for the event kernel.
QUICK_PARAMS = {"total_nodes": 32, "num_channels": 2, "superframes": 3,
                "nodes_per_channel_cap": 8, "backend": "batched"}


def _run_payload(backend, tracer=None):
    params = dict(QUICK_PARAMS, backend=backend)
    return run_experiment("case_study_full", params=params, cache=False,
                          tracer=tracer).payload


class TestZeroPerturbation:
    @pytest.mark.parametrize("backend", ["event", "batched"])
    def test_same_seed_results_equal_tracing_on_and_off(self, backend):
        untraced = _run_payload(backend)
        traced = _run_payload(backend, tracer=Tracer(name="traced"))
        assert json.dumps(untraced, sort_keys=True) == \
            json.dumps(traced, sort_keys=True)

    def test_disabled_tracer_allocates_no_span_objects(self, monkeypatch):
        """With the null tracer active (the default), an instrumented run
        must create zero Span objects — the hot loops pay one attribute
        check and nothing else."""
        import repro.obs.tracer as tracer_module
        allocations = []
        original = tracer_module.Span.__init__

        def counting_init(self, *args, **kwargs):
            allocations.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(tracer_module.Span, "__init__", counting_init)
        _run_payload("batched")
        assert not allocations

    def test_enabled_trace_span_count_is_horizon_independent(self):
        """Kernels accumulate per-phase time into floats and emit each
        phase once — more superframes must not mean more spans."""
        short, long = Tracer(), Tracer()
        run_experiment("case_study_full", cache=False, tracer=short,
                       params=dict(QUICK_PARAMS, superframes=2))
        run_experiment("case_study_full", cache=False, tracer=long,
                       params=dict(QUICK_PARAMS, superframes=6))
        assert len(short.spans) == len(long.spans)


class TestParallelMergeEquality:
    def _trace(self, jobs):
        tracer = Tracer(name="run:fig6_csma")
        run_experiment("fig6_csma", params={"num_windows": 4}, cache=False,
                       jobs=jobs, tracer=tracer)
        return build_payload(tracer)

    def test_serial_trace_equals_two_worker_trace_modulo_timing(self):
        serial, parallel = self._trace(1), self._trace(2)
        assert deterministic_view(serial) == deterministic_view(parallel)

    def test_worker_ids_live_on_the_timing_side_only(self):
        parallel = self._trace(2)
        assert parallel["timing"]["workers"]  # jobs=2 recorded real pids
        assert "workers" not in deterministic_view(parallel)


class TestGoldenTrace:
    def test_fresh_quick_run_matches_the_committed_golden(self):
        tracer = Tracer(name="run:case_study_full")
        run_experiment("case_study_full", params=QUICK_PARAMS, cache=False,
                       tracer=tracer)
        fresh = deterministic_view(build_payload(tracer))
        golden = deterministic_view(read_trace(GOLDEN))
        assert fresh == golden

    def test_golden_report_phase_table_is_deterministic(self):
        payload = read_trace(GOLDEN)
        report = render_report(payload, include_timing=False)
        assert "kernel:batched [devices=16, lanes=2, rounds=3]" in report
        assert "beacon_grid [attempts=48]" in report
        assert "contention_merge [cca=154]" in report
        # no timing-derived content in the deterministic variant
        assert "total_s" not in report and "meters" not in report


class TestCacheCounters:
    def test_hit_miss_store_and_prune_are_counted(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.key("exp", {"a": 1}, 7)
        assert cache.load(key) is None          # miss
        cache.store(key, {"experiment": "exp", "payload": []})
        assert cache.load(key) is not None      # hit
        counts = cache.counters.as_dict()
        assert counts == {"miss": 1, "store": 1, "hit": 1}
        removed = cache.prune_stale(version="other-version")
        assert removed == 1
        assert cache.counters.get("prune") == 1
        # pruning inspects entries without touching the hit/miss counters
        assert cache.counters.get("hit") == 1
        assert cache.counters.get("miss") == 1

    def test_counters_flow_into_the_active_tracer(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.key("exp", {}, 1)
        tracer = Tracer()
        with activate(tracer):
            cache.load(key)
            cache.store(key, {"experiment": "exp", "payload": []})
            cache.load(key)
        assert tracer.counters.as_dict() == {
            "cache.miss": 1, "cache.store": 1, "cache.hit": 1}

    def test_stats_never_touches_foreign_json(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.store(cache.key("exp", {}, 1),
                    {"experiment": "exp", "payload": []})
        foreign = tmp_path / "notes.json"
        foreign.write_text("not json at all", encoding="utf-8")
        stats = cache.stats()
        assert foreign.exists()
        assert foreign.read_text(encoding="utf-8") == "not json at all"
        assert stats["entries"] == 1
        assert list(stats["by_experiment"]) == ["exp"]

    def test_stats_reports_unreadable_entries_without_unlinking(self,
                                                                tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.store(cache.key("exp", {}, 1),
                    {"experiment": "exp", "payload": []})
        victim = next(iter(cache.keys()))
        path = cache.path_for(victim)
        path.write_text("{corrupt", encoding="utf-8")
        stats = cache.stats()
        assert path.exists()  # stats is read-only; load() handles pruning
        assert stats["entries"] == 1
        assert "<unreadable>" in stats["by_experiment"]
