"""End-to-end tests of the experiment engine.

These cover the acceptance contract of the runner subsystem: serial and
parallel runs of a registered experiment produce identical rows for a fixed
seed, a second invocation is served from the result cache, and editing any
input (parameters, seed, code version) invalidates the artifact.
"""

import pytest

from repro.runner import ResultCache, run_experiment
from repro.runner.cache import result_key

#: Deliberately tiny fig6 grid so the Monte-Carlo stays fast in CI.
TINY_FIG6 = {"loads": [0.2, 0.6], "payload_sizes": [20, 100],
             "num_windows": 2, "num_nodes": 30}


class TestSerialParallelEquivalence:
    def test_fig6_rows_identical(self):
        serial = run_experiment("fig6_csma", params=TINY_FIG6, jobs=1,
                                cache=False, seed=11)
        parallel = run_experiment("fig6_csma", params=TINY_FIG6, jobs=2,
                                  cache=False, seed=11)
        assert serial.rows == parallel.rows
        assert len(serial.rows) == 4  # 2 loads x 2 payloads

    def test_contention_table_rows_identical(self):
        params = {"num_windows": 2, "num_nodes": 20}
        serial = run_experiment("contention_table", params=params, jobs=1,
                                cache=False, seed=5)
        parallel = run_experiment("contention_table", params=params, jobs=3,
                                  cache=False, seed=5)
        assert serial.rows == parallel.rows

    def test_different_seeds_differ(self):
        a = run_experiment("fig6_csma", params=TINY_FIG6, cache=False, seed=1)
        b = run_experiment("fig6_csma", params=TINY_FIG6, cache=False, seed=2)
        assert a.rows != b.rows


class TestResultCacheIntegration:
    def test_second_invocation_is_a_hit_with_identical_rows(self, tmp_path):
        first = run_experiment("fig6_csma", params=TINY_FIG6, jobs=2,
                               cache_root=tmp_path, seed=11)
        second = run_experiment("fig6_csma", params=TINY_FIG6, jobs=1,
                                cache_root=tmp_path, seed=11)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.rows == first.rows
        assert second.cache_key == first.cache_key

    def test_param_change_misses(self, tmp_path):
        run_experiment("fig6_csma", params=TINY_FIG6, cache_root=tmp_path,
                       seed=11)
        changed = dict(TINY_FIG6, num_windows=3)
        rerun = run_experiment("fig6_csma", params=changed,
                               cache_root=tmp_path, seed=11)
        assert not rerun.cache_hit

    def test_equivalent_param_spellings_share_one_cache_entry(self, tmp_path):
        """Acceptance: parameters are canonicalised through the typed
        schema before keying, so ``num_windows="4"`` and ``num_windows=4``
        (and ``4.0``) resolve to the same artifact."""
        base = dict(TINY_FIG6, num_windows=4)
        first = run_experiment("fig6_csma", params=base,
                               cache_root=tmp_path, seed=11)
        for spelling in ("4", 4.0):
            replay = run_experiment("fig6_csma",
                                    params=dict(TINY_FIG6,
                                                num_windows=spelling),
                                    cache_root=tmp_path, seed=11)
            assert replay.cache_key == first.cache_key
            assert replay.cache_hit
            assert replay.params == first.params
        assert len(ResultCache(root=tmp_path)) == 1

    def test_out_of_domain_param_never_reaches_the_cache(self, tmp_path):
        from repro.runner.params import ParameterValueError
        with pytest.raises(ParameterValueError, match="num_windows"):
            run_experiment("fig6_csma",
                           params=dict(TINY_FIG6, num_windows=0),
                           cache_root=tmp_path, seed=11)
        assert len(ResultCache(root=tmp_path)) == 0

    def test_seed_change_misses(self, tmp_path):
        run_experiment("fig6_csma", params=TINY_FIG6, cache_root=tmp_path,
                       seed=11)
        rerun = run_experiment("fig6_csma", params=TINY_FIG6,
                               cache_root=tmp_path, seed=12)
        assert not rerun.cache_hit

    def test_invalidation_forces_recompute(self, tmp_path):
        first = run_experiment("fig6_csma", params=TINY_FIG6,
                               cache_root=tmp_path, seed=11)
        cache = ResultCache(root=tmp_path)
        assert cache.invalidate(first.cache_key)
        rerun = run_experiment("fig6_csma", params=TINY_FIG6,
                               cache_root=tmp_path, seed=11)
        assert not rerun.cache_hit
        assert rerun.rows == first.rows

    def test_code_version_participates_in_the_key(self):
        params = {"loads": [0.2], "payload_sizes": [20],
                  "num_windows": 1, "num_nodes": 10}
        assert result_key("fig6_csma", params, 0, "version-a") != \
            result_key("fig6_csma", params, 0, "version-b")

    def test_no_cache_runs_never_store(self, tmp_path):
        run = run_experiment("fig6_csma", params=TINY_FIG6, cache=False,
                             seed=11)
        assert not run.cache_hit
        assert len(ResultCache(root=tmp_path)) == 0

    def test_seed_none_bypasses_the_cache(self, tmp_path):
        """Regression: seed=None runs draw unpredictable task seeds, so
        caching them would replay one arbitrary draw as deterministic.
        Neither lookup nor store may touch the cache."""
        first = run_experiment("fig6_csma", params=TINY_FIG6,
                               cache_root=tmp_path, seed=None)
        assert not first.cache_hit
        assert len(ResultCache(root=tmp_path)) == 0  # nothing stored
        second = run_experiment("fig6_csma", params=TINY_FIG6,
                                cache_root=tmp_path, seed=None)
        assert not second.cache_hit  # and nothing replayed

    def test_seed_none_does_not_read_a_poisoned_entry(self, tmp_path):
        """Even an artifact stored under the seed=None key (by an older
        version of the engine) must not be replayed."""
        from repro.runner.drivers import jsonify
        from repro.runner.registry import default_registry

        resolved = default_registry().get("fig6_csma").resolve_params(TINY_FIG6)
        cache = ResultCache(root=tmp_path)
        key = cache.key("fig6_csma", jsonify(dict(resolved)), None)
        cache.store(key, {"payload": {"rows": [{"poisoned": True}]}})
        run = run_experiment("fig6_csma", params=TINY_FIG6,
                             cache_root=tmp_path, seed=None)
        assert not run.cache_hit
        assert run.rows and "poisoned" not in run.rows[0]

    @pytest.mark.parametrize("seed", [-1, True, False, 1.0, "7"])
    def test_invalid_seed_is_rejected_before_any_work(self, tmp_path, seed):
        """A negative seed used to fail only inside numpy, and ``True``
        computed seed 1's rows under a second cache key."""
        with pytest.raises(ValueError, match=f"seed .*got {seed!r}"):
            run_experiment("fig3_radio", cache_root=tmp_path, seed=seed)
        assert len(ResultCache(root=tmp_path)) == 0


class TestPayloadShape:
    def test_fig6_payload_is_json_rows(self, tmp_path):
        run = run_experiment("fig6_csma", params=TINY_FIG6,
                             cache_root=tmp_path, seed=11)
        for row in run.rows:
            assert set(row) == {"payload_bytes", "load", "on_air_bytes",
                                "t_cont_s", "n_cca", "pr_col", "pr_cf"}
            assert 0.0 <= row["pr_cf"] <= 1.0
        report = run.payload["report"]
        assert report["experiment_id"] == "EXP-F6"

    def test_unknown_param_rejected(self):
        with pytest.raises(KeyError, match="no parameter"):
            run_experiment("fig6_csma", params={"bogus": 1}, cache=False)
