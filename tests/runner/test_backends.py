"""Tests of the pluggable cache storage backends."""

import json
import threading

import pytest

from repro.runner.backends import (BACKEND_KINDS, CacheBackend,
                                   DirectoryBackend, SharedDirectoryBackend,
                                   resolve_backend)
from repro.runner.cache import ResultCache
from repro.runner.engine import resolve_cache

KEY_A = "a" * 64
KEY_B = "0123456789abcdef" * 4


class TestDirectoryBackend:
    def test_layout_is_the_historical_one(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        path = backend.path_for(KEY_A)
        assert path == tmp_path / KEY_A[:2] / f"{KEY_A}.json"

    def test_round_trip(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        assert backend.load(KEY_A) is None
        backend.store(KEY_A, {"payload": {"rows": [1, 2]}})
        assert backend.load(KEY_A) == {"payload": {"rows": [1, 2]}}
        assert list(backend.keys()) == [KEY_A]
        assert backend.delete(KEY_A) is True
        assert backend.delete(KEY_A) is False

    def test_keys_ignore_foreign_json(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        backend.store(KEY_A, {"x": 1})
        (tmp_path / "aa").mkdir(exist_ok=True)
        (tmp_path / "aa" / "notes.json").write_text("{}", encoding="utf-8")
        (tmp_path / "config.json").write_text("{}", encoding="utf-8")
        assert list(backend.keys()) == [KEY_A]

    def test_store_leaves_no_temp_files(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        backend.store(KEY_A, {"x": 1})
        assert not list(tmp_path.rglob("*.tmp"))

    def test_warm_cache_written_by_result_cache_still_hits(self, tmp_path):
        """The extraction is layout-compatible: artifacts stored through the
        plain cache keep hitting through every backend."""
        legacy = ResultCache(root=tmp_path)
        key = legacy.key("demo", {"x": 1}, seed=0, version="v")
        legacy.store(key, {"payload": {"rows": []}})
        for backend in (DirectoryBackend(tmp_path),
                        SharedDirectoryBackend(tmp_path)):
            warmed = ResultCache(backend=backend)
            assert warmed.key("demo", {"x": 1}, 0, "v") == key
            assert warmed.load(key) == {"payload": {"rows": []}}

    def test_concurrent_reader_never_observes_partial_json(self, tmp_path):
        """The satellite contract: store is write-temp-then-rename, so a
        reader racing many rewrites sees a complete artifact or a miss."""
        backend = DirectoryBackend(tmp_path)
        artifact = {"payload": {"rows": [{"i": i, "text": "x" * 200}
                                         for i in range(200)]}}
        expected = json.loads(json.dumps(artifact))
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                loaded = backend.load(KEY_A)
                if loaded is not None and loaded != expected:
                    torn.append(loaded)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(150):
                backend.store(KEY_A, artifact)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not torn
        # The heal-on-corrupt path must not have eaten the artifact either.
        assert backend.load(KEY_A) == expected


class TestSharedDirectoryBackend:
    def test_lock_files_live_outside_the_artifact_layout(self, tmp_path):
        backend = SharedDirectoryBackend(tmp_path)
        with backend.lock(KEY_A):
            pass
        backend.store(KEY_A, {"x": 1})
        assert (tmp_path / ".locks" / f"{KEY_A}.lock").exists()
        assert list(backend.keys()) == [KEY_A]

    def test_lock_is_reentrant_within_a_thread(self, tmp_path):
        """A worker wraps compute in lock(key); the engine's store re-enters
        for the same key — that nesting must not deadlock."""
        backend = SharedDirectoryBackend(tmp_path)
        with backend.lock(KEY_A):
            backend.store(KEY_A, {"x": 1})  # store() re-takes lock(KEY_A)
        assert backend.load(KEY_A) == {"x": 1}
        assert backend.counters.as_dict()["lock.acquired"] == 1

    def test_contention_is_counted(self, tmp_path):
        backend = SharedDirectoryBackend(tmp_path)
        inside = threading.Event()
        release = threading.Event()

        def holder():
            with backend.lock(KEY_A):
                inside.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=holder)
        thread.start()
        assert inside.wait(timeout=10)

        def contender():
            with backend.lock(KEY_A):
                pass

        contender_thread = threading.Thread(target=contender)
        contender_thread.start()
        # Give the contender time to block on the held lock, then release.
        contender_thread.join(timeout=0.2)
        release.set()
        thread.join(timeout=10)
        contender_thread.join(timeout=10)
        counts = backend.counters.as_dict()
        assert counts["lock.acquired"] == 2
        assert counts["lock.contended"] >= 1

    def test_independent_keys_do_not_contend(self, tmp_path):
        backend = SharedDirectoryBackend(tmp_path)
        with backend.lock(KEY_A), backend.lock(KEY_B):
            pass
        counts = backend.counters.as_dict()
        assert counts["lock.acquired"] == 2
        assert counts.get("lock.contended", 0) == 0

    def test_describe_reports_lock_counters(self, tmp_path):
        backend = SharedDirectoryBackend(tmp_path)
        with backend.lock(KEY_A):
            pass
        description = backend.describe()
        assert description["kind"] == "shared-directory"
        assert description["counters"]["lock.acquired"] == 1


class TestResolution:
    def test_kind_names(self, tmp_path):
        directory = resolve_backend("directory", tmp_path)
        shared = resolve_backend("shared", tmp_path)
        assert type(directory) is DirectoryBackend
        assert type(shared) is SharedDirectoryBackend
        assert set(BACKEND_KINDS) == {"directory", "shared"}

    def test_instance_passes_through(self, tmp_path):
        backend = SharedDirectoryBackend(tmp_path)
        assert resolve_backend(backend) is backend

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="Unknown cache backend"):
            resolve_backend("redis", tmp_path)

    def test_resolve_cache_accepts_backends_and_kind_tokens(self, tmp_path):
        """`run_experiment(cache=...)` and `Session(backend=...)` accept
        kind names; resolve_cache must build an equivalent cache from one."""
        cache = resolve_cache("shared", str(tmp_path))
        assert isinstance(cache, ResultCache)
        assert isinstance(cache.backend, SharedDirectoryBackend)
        direct = resolve_cache(DirectoryBackend(tmp_path))
        assert isinstance(direct.backend, DirectoryBackend)
        assert direct.root == tmp_path

    def test_result_cache_default_backend_is_directory(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        assert isinstance(cache.backend, DirectoryBackend)
        assert isinstance(cache.backend, CacheBackend)
        assert cache.root == tmp_path


class TestCliStatsBackendFlag:
    def test_cache_stats_reports_the_backend(self, tmp_path, capsys):
        from repro.runner.cli import main
        assert main(["cache", "stats", "--backend", "shared",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "backend:    shared-directory" in out
        assert "backend counters:" in out


class TestExists:
    @pytest.mark.parametrize("backend_cls", [DirectoryBackend,
                                             SharedDirectoryBackend])
    def test_exists_tracks_store_and_delete(self, tmp_path, backend_cls):
        backend = backend_cls(tmp_path)
        assert backend.exists(KEY_A) is False
        backend.store(KEY_A, {"payload": {"rows": []}})
        assert backend.exists(KEY_A) is True
        assert backend.exists(KEY_B) is False
        backend.delete(KEY_A)
        assert backend.exists(KEY_A) is False

    def test_exists_never_opens_the_payload(self, tmp_path):
        """The satellite contract: occupancy checks are a stat, not a
        parse — a corrupt artifact still *exists* (load() is where
        corruption is diagnosed)."""
        backend = DirectoryBackend(tmp_path)
        path = backend.path_for(KEY_A)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ not json", encoding="utf-8")
        assert backend.exists(KEY_A) is True

    def test_protocol_declares_exists(self):
        assert hasattr(CacheBackend, "exists")
        with pytest.raises(NotImplementedError):
            CacheBackend.exists(object(), KEY_A)
