"""Tests of the content-addressed result cache."""

import json

import pytest

from repro.runner.cache import (NullCache, ResultCache, canonical_json,
                                code_version, result_key)


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cache")


class TestKeys:
    def test_deterministic(self):
        a = result_key("fig6_csma", {"n": 3}, seed=1, version="v")
        b = result_key("fig6_csma", {"n": 3}, seed=1, version="v")
        assert a == b

    def test_sensitive_to_every_component(self):
        base = result_key("fig6_csma", {"n": 3}, seed=1, version="v")
        assert result_key("fig7_link", {"n": 3}, 1, "v") != base
        assert result_key("fig6_csma", {"n": 4}, 1, "v") != base
        assert result_key("fig6_csma", {"n": 3}, 2, "v") != base
        assert result_key("fig6_csma", {"n": 3}, 1, "w") != base

    def test_key_ignores_dict_order(self):
        assert result_key("e", {"a": 1, "b": 2}, 0, "v") == \
            result_key("e", {"b": 2, "a": 1}, 0, "v")

    @pytest.mark.parametrize("experiment,digest", [
        ("case_study_full",
         "368ebc09eb28ba34ae91f3071860c2fb463568af1450ba09eb205a63f7aae694"),
        ("fig6_csma",
         "c4259731e7133b69acdab4aa25637a2925b3dee35ecc0b6dd882c389303b4cc8"),
    ])
    def test_default_run_keys_are_pinned(self, experiment, digest):
        """Schema canonicalisation and ``jsonify`` feed every key: moving
        or rewriting them must not orphan existing cache entries."""
        from repro.runner.engine import canonical_params
        from repro.runner.registry import default_registry
        resolved = default_registry().get(experiment).resolve_params({})
        assert result_key(experiment, canonical_params(resolved), 2005,
                          version="pinned") == digest

    def test_default_version_is_code_version(self):
        assert result_key("e", {}, 0) == result_key("e", {}, 0, code_version())

    def test_code_version_is_stable_within_a_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestRoundTrip:
    def test_miss_then_hit(self, cache):
        key = cache.key("demo", {"x": 1}, seed=0, version="v")
        assert cache.load(key) is None
        path = cache.store(key, {"rows": [{"a": 1.5}]})
        assert path.is_file()
        assert cache.load(key) == {"rows": [{"a": 1.5}]}

    def test_invalidate(self, cache):
        key = cache.key("demo", {}, 0, "v")
        cache.store(key, {"rows": []})
        assert cache.invalidate(key) is True
        assert cache.load(key) is None
        assert cache.invalidate(key) is False

    def test_clear_and_len(self, cache):
        for index in range(3):
            cache.store(cache.key("demo", {"i": index}, 0, "v"), {"rows": []})
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_corrupt_artifact_is_a_miss(self, cache):
        key = cache.key("demo", {}, 0, "v")
        path = cache.store(key, {"rows": []})
        path.write_text("{not json", encoding="utf-8")
        assert cache.load(key) is None
        assert not path.exists()  # removed so the caller recomputes

    def test_artifact_is_plain_json(self, cache):
        key = cache.key("demo", {}, 0, "v")
        path = cache.store(key, {"rows": [{"value": 0.25}]})
        assert json.loads(path.read_text())["rows"][0]["value"] == 0.25


class TestPruneStale:
    def _store(self, cache, name, version):
        artifact = {"experiment": name, "payload": {"rows": []}}
        if version is not None:
            artifact["code_version"] = version
        cache.store(cache.key(name, {}, 0, version or "v"), artifact)

    def test_prunes_only_other_versions(self, cache):
        self._store(cache, "current-a", code_version())
        self._store(cache, "current-b", code_version())
        self._store(cache, "stale-a", "0123456789abcdef")
        self._store(cache, "stale-b", "fedcba9876543210")
        assert cache.prune_stale() == 2
        assert len(cache) == 2
        remaining = [cache.load(key) for key in cache.keys()]
        assert {artifact["experiment"] for artifact in remaining} == \
            {"current-a", "current-b"}

    def test_unversioned_artifacts_count_as_stale(self, cache):
        """Entries without a code_version field predate the stamping
        convention, so they were written by an older tree by definition."""
        self._store(cache, "legacy", None)
        self._store(cache, "current", code_version())
        assert cache.prune_stale() == 1
        assert len(cache) == 1

    def test_explicit_version_argument(self, cache):
        self._store(cache, "a", "vvvv")
        self._store(cache, "b", "wwww")
        assert cache.prune_stale(version="vvvv") == 1
        assert len(cache) == 1

    def test_empty_cache_is_a_noop(self, cache):
        assert cache.prune_stale() == 0

    def test_corrupt_entries_are_swept_too(self, cache):
        self._store(cache, "current", code_version())
        key = cache.key("broken", {}, 0, "v")
        path = cache.store(key, {"rows": []})
        path.write_text("{not json", encoding="utf-8")
        assert cache.prune_stale() == 1
        assert len(cache) == 1

    def test_foreign_json_under_the_root_is_never_touched(self, cache):
        """Regression: keys()/clear()/prune_stale() must only see files
        matching the content-addressed layout — a sweep export (or any
        other JSON) placed under the cache root is not a cache entry."""
        self._store(cache, "current", code_version())
        foreign = cache.root / "exports" / "node_density.manifest.json"
        foreign.parent.mkdir(parents=True)
        foreign.write_text('{"spec_hash": "abc"}', encoding="utf-8")
        assert len(cache) == 1
        assert cache.prune_stale() == 0
        assert cache.clear() == 1
        assert foreign.is_file()


class TestNullCache:
    def test_never_hits(self):
        cache = NullCache()
        key = cache.key("demo", {"x": 1}, 0, "v")
        assert key == result_key("demo", {"x": 1}, 0, "v")
        cache.store(key, {"rows": []})
        assert cache.load(key) is None


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestContains:
    def test_contains_without_parsing_or_accounting(self, cache):
        key = cache.key("demo", {"x": 1}, seed=0, version="v")
        assert cache.contains(key) is False
        cache.store(key, {"rows": []})
        assert cache.contains(key) is True
        # Advisory only: the payload stays untouched on disk (no unlink,
        # no rewrite), unlike load()'s corrupt-artifact handling.
        assert cache.load(key) == {"rows": []}

    def test_contains_is_a_stat_not_a_load(self, cache):
        """A corrupt artifact still *exists*; only load() pays the parse
        (and diagnoses the corruption)."""
        key = cache.key("demo", {"x": 2}, seed=0, version="v")
        cache.store(key, {"rows": []})
        cache.backend.path_for(key).write_text("{ not json",
                                               encoding="utf-8")
        assert cache.contains(key) is True

    def test_null_cache_contains_nothing(self):
        assert NullCache().contains("f" * 64) is False
