"""Pluggable storage backends of the content-addressed result cache.

:class:`repro.runner.cache.ResultCache` owns the *semantics* of the cache —
key computation, hit/miss accounting, code-version pruning — and delegates
the *storage* to a backend implementing the small :class:`CacheBackend`
protocol defined here.  Two backends ship:

:class:`DirectoryBackend`
    The original local-directory layout (``<root>/<key[:2]>/<key>.json``),
    extracted verbatim from ``ResultCache``: same paths, same JSON
    formatting, same corrupt-entry healing — artifacts written before the
    extraction keep hitting.  Stores are atomic everywhere: the artifact is
    written to a uniquely named temporary file, fsynced, and renamed into
    place, so a concurrent reader observes either the previous complete
    artifact or the new one, never a torn write.

:class:`SharedDirectoryBackend`
    The same layout plus *cross-process* coordination for N workers sharing
    one cache directory: per-key advisory file locks (``fcntl.flock`` on
    sidecar files under ``<root>/.locks/``) serialise writers and let a
    compute path double-check the cache under the lock, so identical work
    submitted to several workers is computed exactly once.  Lock traffic is
    counted (``lock.acquired`` / ``lock.contended``) and surfaces through
    ``python -m repro cache stats --backend shared``.

Layering: this module sits *below* the runner's cache (it imports only the
:mod:`repro.sim.monitor` counters) and is the one module below
:mod:`repro.api` the service layer (:mod:`repro.service`) may import — the
backend protocol is the seam the job workers and the engine share.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Union

from repro.sim.monitor import CounterMonitor

try:  # pragma: no cover - always available on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: Shape of a stored key: 64 lowercase hex digits (sha-256).
KEY_PATTERN = re.compile(r"[0-9a-f]{64}")

#: Registered backend kinds ``resolve_backend`` understands.
BACKEND_KINDS = ("directory", "shared")

#: Process-wide counter making concurrent temp-file names unique even for
#: same-pid writers (worker threads storing the same key).
_TEMP_COUNTER = itertools.count()


class CacheBackend:
    """Storage protocol of the result cache.

    A backend is a key/artifact store with directory-shaped introspection.
    Artifacts are JSON-safe mappings; keys are sha-256 hex digests computed
    by the cache layer (backends never hash).  Implementations must make
    :meth:`store` atomic — a concurrent :meth:`load` observes a complete
    artifact or a miss, never a partial write.

    ``kind`` is the backend's human-readable name.
    """

    kind: str = "abstract"
    root: Optional[Path] = None

    def path_for(self, key: str) -> Path:
        """Artifact path of ``key`` (whether or not it exists)."""
        raise NotImplementedError

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored artifact for ``key``, or ``None`` on a miss."""
        raise NotImplementedError

    def exists(self, key: str) -> bool:
        """Whether an artifact is stored under ``key`` — without reading it.

        This is the cheap existence probe (a single ``stat``, no locking,
        no JSON parse): status displays over thousand-point sweeps call it
        once per point, so it must never open the payload.  The trade-off
        is that a torn or corrupt artifact still *exists* here; only
        :meth:`load` detects (and heals) corruption, so existence is
        advisory — an actual run re-checks through :meth:`load`.
        """
        raise NotImplementedError

    def store(self, key: str, artifact: Mapping[str, Any]) -> Path:
        """Atomically write ``artifact`` under ``key``; return its path."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """Drop one entry; returns whether anything was removed."""
        raise NotImplementedError

    def keys(self) -> Iterator[str]:
        """Every stored key."""
        raise NotImplementedError

    @contextmanager
    def lock(self, key: str) -> Iterator[None]:
        """Serialise a critical section on ``key`` across workers.

        The base protocol is single-writer-per-process friendly: the
        default lock is a no-op because :meth:`store` is already atomic.
        Shared backends override this with real cross-process locking.
        """
        yield

    def describe(self) -> Dict[str, Any]:
        """Plain-data description (kind, root, counters) for ``stats``."""
        return {"kind": self.kind,
                "root": None if self.root is None else str(self.root),
                "counters": {}}


class DirectoryBackend(CacheBackend):
    """The local content-addressed directory layout.

    Layout (unchanged since the cache's first release, so pre-existing
    warm caches keep hitting)::

        <root>/<key[:2]>/<key>.json

    Stores are write-temp-then-rename with an fsync on the temporary file;
    the temporary name is unique per (process, store call), so concurrent
    writers of one key cannot tear each other's artifact — whichever
    ``os.replace`` lands last wins with a complete file.
    """

    kind = "directory"

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """Parse the artifact at ``key``; a corrupt file is healed.

        A corrupt artifact (interrupted legacy write, manual edit) is
        treated as a miss and removed so the caller recomputes it.
        """
        path = self.path_for(key)
        if not path.is_file():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass  # read-only store: recompute without healing
            return None

    def exists(self, key: str) -> bool:
        """Lock-free stat of the artifact path — never opens the payload.

        Inherited unchanged by :class:`SharedDirectoryBackend`: existence
        probes deliberately bypass the per-key locks (a rename-in-progress
        either already landed — ``True`` — or has not — ``False``; both
        answers are coherent snapshots because stores are atomic).
        """
        return self.path_for(key).is_file()

    def store(self, key: str, artifact: Mapping[str, Any]) -> Path:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary = path.with_suffix(
            f".{os.getpid()}.{next(_TEMP_COUNTER)}.tmp")
        data = json.dumps(artifact, indent=1, sort_keys=True)
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
        return path

    def delete(self, key: str) -> bool:
        path = self.path_for(key)
        if path.is_file():
            path.unlink()
            return True
        return False

    def keys(self) -> Iterator[str]:
        """All stored keys.

        Only files matching the content-addressed layout
        (``<key[:2]>/<key>.json`` with a 64-hex-digit key) count — an
        unrelated JSON file that happens to live under the cache root must
        never be treated (or deleted!) as a cache entry.
        """
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.json")):
            key = path.stem
            if KEY_PATTERN.fullmatch(key) and path.parent.name == key[:2]:
                yield key

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "root": str(self.root), "counters": {}}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(root={str(self.root)!r})"


class _KeyLock:
    """Per-key lock state of a shared backend: a reentrant thread lock plus
    the open OS-lock handle and its reentrancy depth (guarded by ``rlock``)."""

    __slots__ = ("rlock", "depth", "handle")

    def __init__(self):
        self.rlock = threading.RLock()
        self.depth = 0
        self.handle: Optional[Any] = None


class SharedDirectoryBackend(DirectoryBackend):
    """A directory backend safe for N workers on one cache directory.

    Adds per-key advisory file locks on top of the atomic rename stores:

    * :meth:`store` takes the key's exclusive lock, so two workers racing
      to publish one key serialise (last complete write wins either way —
      the lock mainly bounds redundant IO and feeds the counters);
    * :meth:`lock` is exposed for *compute* critical sections: a worker
      wraps "check cache, compute on miss, store" in ``with
      backend.lock(key):`` and the double-check under the lock guarantees
      a key is computed at most once per cache directory, whatever the
      worker count or process topology.

    Lock files are sidecars under ``<root>/.locks/`` (outside the
    ``<key[:2]>/`` artifact layout, so key enumeration never sees them).
    Locking uses ``fcntl.flock``; on platforms without ``fcntl`` the
    backend degrades to intra-process locking only (stores stay atomic —
    only the cross-process compute dedup weakens).

    Counters (surfaced by ``repro cache stats --backend shared``):

    ``lock.acquired``
        Exclusive locks taken.
    ``lock.contended``
        Acquisitions that had to wait because another worker held the key.
    """

    kind = "shared-directory"

    def __init__(self, root: Union[str, os.PathLike]):
        super().__init__(root)
        self.counters = CounterMonitor("backend")
        # Serialises same-process threads (flock is per file *description*:
        # a second flock on the same path from one process would conflict
        # with — not nest inside — the first, so the OS lock is taken once
        # per key and re-entered via the depth count).
        self._key_locks: Dict[str, "_KeyLock"] = {}
        self._registry_lock = threading.Lock()

    def _key_lock(self, key: str) -> "_KeyLock":
        with self._registry_lock:
            entry = self._key_locks.get(key)
            if entry is None:
                entry = self._key_locks[key] = _KeyLock()
            return entry

    def _lock_path(self, key: str) -> Path:
        return self.root / ".locks" / f"{key}.lock"

    @contextmanager
    def lock(self, key: str) -> Iterator[None]:
        """Hold the exclusive cross-process lock of ``key``.

        Reentrant within a thread: a worker wraps its whole
        check-compute-store critical section in one ``lock(key)`` and the
        engine's :meth:`store` re-enters for the same key without
        deadlocking (the OS lock is only taken on the outermost entry).
        """
        entry = self._key_lock(key)
        contended = not entry.rlock.acquire(blocking=False)
        if contended:
            entry.rlock.acquire()
        entry.depth += 1
        try:
            if entry.depth == 1:
                lock_path = self._lock_path(key)
                lock_path.parent.mkdir(parents=True, exist_ok=True)
                entry.handle = open(lock_path, "a+", encoding="utf-8")
                if fcntl is not None:
                    try:
                        fcntl.flock(entry.handle,
                                    fcntl.LOCK_EX | fcntl.LOCK_NB)
                    except OSError:
                        contended = True
                        fcntl.flock(entry.handle, fcntl.LOCK_EX)
                self.counters.increment("lock.acquired")
                if contended:
                    self.counters.increment("lock.contended")
            yield
        finally:
            entry.depth -= 1
            if entry.depth == 0 and entry.handle is not None:
                if fcntl is not None:
                    fcntl.flock(entry.handle, fcntl.LOCK_UN)
                entry.handle.close()
                entry.handle = None
            entry.rlock.release()

    def store(self, key: str, artifact: Mapping[str, Any]) -> Path:
        with self.lock(key):
            return super().store(key, artifact)

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "root": str(self.root),
                "counters": self.counters.as_dict()}


def resolve_backend(backend: Any,
                    root: Optional[Union[str, os.PathLike]] = None
                    ) -> CacheBackend:
    """Normalise a backend argument to a :class:`CacheBackend` instance.

    ``backend`` may be a ready instance (returned unchanged), or one of the
    :data:`BACKEND_KINDS` names — ``"directory"`` / ``"shared"`` — built
    over ``root`` (``None`` resolves like the cache default: the
    ``REPRO_CACHE_DIR`` environment variable, then
    ``~/.cache/repro-bougard``).
    """
    if isinstance(backend, CacheBackend):
        return backend
    if backend in ("directory", "shared"):
        if root is None:
            from repro.runner.cache import default_cache_root
            root = default_cache_root()
        if backend == "shared":
            return SharedDirectoryBackend(root)
        return DirectoryBackend(root)
    raise ValueError(f"Unknown cache backend {backend!r}; expected a "
                     f"CacheBackend instance or one of "
                     f"{', '.join(BACKEND_KINDS)}")
