"""Content-addressed on-disk cache of experiment results.

Every engine run is identified by the hash of everything that can change its
output: the experiment name, the fully resolved parameters, the master seed
and a *code version* token derived from the ``repro`` package sources.  The
artifact stored under that key is plain JSON, so a cache hit replays the
exact rows of the original run — and editing any module under
``src/repro/`` silently invalidates every prior entry.

Storage is pluggable (:mod:`repro.runner.backends`): the default
:class:`~repro.runner.backends.DirectoryBackend` keeps the original local
layout ::

    <root>/<key[:2]>/<key>.json

with ``root`` resolved from (in order) the constructor argument, the
``REPRO_CACHE_DIR`` environment variable, and the default
``~/.cache/repro-bougard`` (falling back to ``.repro-cache`` in the working
directory when no home directory is available).  A
:class:`~repro.runner.backends.SharedDirectoryBackend` adds cross-process
file locking so N service workers can share one cache directory.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.obs.tracer import current_tracer
from repro.runner.backends import CacheBackend, DirectoryBackend
from repro.sim.monitor import CounterMonitor

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_CODE_VERSION: Optional[str] = None


def default_cache_root() -> Path:
    """The cache directory used when none is given explicitly."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    try:
        return Path.home() / ".cache" / "repro-bougard"
    except (KeyError, RuntimeError):  # no resolvable home directory
        return Path(".repro-cache")


def code_version() -> str:
    """A short token identifying the current ``repro`` source tree.

    Computed as the SHA-256 over every ``*.py`` file of the installed
    ``repro`` package (path-sorted, contents concatenated) plus the package
    version string, so any source edit changes the token and therefore every
    cache key.  The token is computed once per process.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro
        digest = hashlib.sha256()
        package_root = Path(repro.__file__).parent
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(path.read_bytes())
        digest.update(repro.__version__.encode("utf-8"))
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def canonical_json(value: Any) -> str:
    """Deterministic JSON used for hashing (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def result_key(experiment: str, params: Mapping[str, Any], seed: Any,
               version: Optional[str] = None) -> str:
    """Cache key of one run: hash(experiment, params, seed, code version).

    A ``seed`` of ``None`` still hashes (to a stable key), but such runs
    draw unpredictable task seeds and are not reproducible — the engine
    therefore never stores or looks them up (see
    :func:`repro.runner.engine.run_experiment`); the key is only good for
    logging.
    """
    payload = {
        "experiment": experiment,
        "params": params,
        "seed": seed,
        "version": version if version is not None else code_version(),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed JSON artifact store.

    Parameters
    ----------
    root:
        Cache directory; created lazily on the first :meth:`store`.
        ``None`` resolves via :func:`default_cache_root`.  Ignored when a
        ``backend`` is given.
    backend:
        A ready :class:`~repro.runner.backends.CacheBackend`; ``None``
        builds the default :class:`~repro.runner.backends.DirectoryBackend`
        over ``root`` — exactly the historical layout, so caches written
        before the backend extraction keep hitting.

    Examples
    --------
    >>> cache = ResultCache(root="/tmp/doctest-repro-cache")
    >>> key = cache.key("fig6_csma", {"num_windows": 2}, seed=1, version="abc")
    >>> cache.load(key) is None
    True
    >>> _ = cache.store(key, {"rows": [1, 2, 3]})
    >>> cache.load(key)["rows"]
    [1, 2, 3]
    >>> cache.clear()
    1
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 backend: Optional[CacheBackend] = None):
        if backend is None:
            backend = DirectoryBackend(
                Path(root) if root is not None else default_cache_root())
        self.backend = backend
        self.root = backend.root
        #: Instance-local event counts (hit/miss/store/prune); the same
        #: events also feed the active tracer's ``cache.*`` counters.
        self.counters = CounterMonitor("cache")

    def _count(self, event: str) -> None:
        self.counters.increment(event)
        current_tracer().count(f"cache.{event}")

    # -- keys ---------------------------------------------------------------------
    def key(self, experiment: str, params: Mapping[str, Any], seed: Any,
            version: Optional[str] = None) -> str:
        """Cache key of one run — see :func:`result_key`."""
        return result_key(experiment, params, seed, version)

    def path_for(self, key: str) -> Path:
        """Artifact path of ``key`` (whether or not it exists)."""
        return self.backend.path_for(key)

    # -- round trip ---------------------------------------------------------------
    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored artifact for ``key``, or ``None`` on a miss.

        A corrupt artifact (interrupted write, manual edit) is treated as a
        miss and removed so the caller recomputes it.
        """
        artifact = self._load_artifact(key)
        self._count("hit" if artifact is not None else "miss")
        return artifact

    def _load_artifact(self, key: str) -> Optional[Dict[str, Any]]:
        """:meth:`load` without the hit/miss accounting (maintenance use)."""
        return self.backend.load(key)

    def contains(self, key: str) -> bool:
        """Whether an artifact is stored under ``key`` — without reading it.

        A lock-free ``stat`` (:meth:`CacheBackend.exists`): no JSON parse,
        no hit/miss accounting, safe to call once per point of a
        thousand-point sweep status display.  Advisory by design — a
        corrupt artifact still *exists* here; :meth:`load` is what detects
        (and heals) corruption, and an actual run goes through
        :meth:`load`, so a ``True`` from a torn file costs one recompute
        at run time, never a wrong result.
        """
        return self.backend.exists(key)

    def store(self, key: str, artifact: Mapping[str, Any]) -> Path:
        """Write ``artifact`` under ``key`` (atomically) and return its path.

        Stores are write-temp-then-rename with an fsync on the temporary
        file (unique name per store call), so concurrent writers of the
        same key cannot tear each other's artifact and a concurrent reader
        never observes partial JSON; whichever rename runs last wins with a
        complete file.
        """
        path = self.backend.store(key, artifact)
        self._count("store")
        return path

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether anything was removed."""
        return self.backend.delete(key)

    # -- maintenance --------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        """All stored keys.

        Only files matching the content-addressed layout
        (``<key[:2]>/<key>.json`` with a 64-hex-digit key) count — an
        unrelated JSON file that happens to live under the cache root must
        never be treated (or deleted!) as a cache entry by
        :meth:`clear`/:meth:`prune_stale`.
        """
        return self.backend.keys()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for key in list(self.keys()):
            removed += int(self.invalidate(key))
        return removed

    def prune_stale(self, version: Optional[str] = None) -> int:
        """Drop entries whose embedded code-version token is not ``version``.

        Cache keys hash the code version, so an artifact written by an
        older source tree can never be *hit* again — it just accumulates on
        disk.  This removes every such unreachable entry; artifacts without
        a ``code_version`` field predate the stamping convention (they were
        by definition written by an older tree) and are pruned too.
        ``version`` defaults to the current :func:`code_version`.  Returns
        the number of entries removed.
        """
        current = version if version is not None else code_version()
        removed = 0
        for key in list(self.keys()):
            artifact = self._load_artifact(key)
            if artifact is None:  # corrupt: _load_artifact() unlinked it
                removed += 1
                continue
            if artifact.get("code_version") != current:
                removed += int(self.invalidate(key))
        if removed:
            self.counters.increment("prune", removed)
            current_tracer().count("cache.prune", removed)
        return removed

    def stats(self) -> Dict[str, Any]:
        """Read-only store statistics: entry count, bytes, per-experiment.

        Strictly non-mutating, with the same scoping guarantee as
        :meth:`keys`: only files matching the content-addressed layout are
        inspected, foreign JSON under the cache root is never opened, and
        (unlike :meth:`load`) a corrupt artifact is reported — under the
        experiment name ``"<unreadable>"`` — rather than unlinked.
        """
        entries = 0
        total_bytes = 0
        by_experiment: Dict[str, Dict[str, int]] = {}
        for key in self.keys():
            path = self.path_for(key)
            try:
                size = path.stat().st_size
            except OSError:
                continue  # raced with a concurrent invalidate
            try:
                artifact = json.loads(path.read_text(encoding="utf-8"))
                experiment = str(artifact.get("experiment", "<unknown>"))
            except (OSError, json.JSONDecodeError):
                experiment = "<unreadable>"
            entries += 1
            total_bytes += size
            bucket = by_experiment.setdefault(experiment,
                                              {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        return {
            "root": str(self.root),
            "entries": entries,
            "total_bytes": total_bytes,
            "by_experiment": {name: by_experiment[name]
                              for name in sorted(by_experiment)},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ResultCache(root={str(self.root)!r})"


class NullCache:
    """Cache stand-in that never hits — the ``--no-cache`` strategy."""

    root = None

    def key(self, experiment: str, params: Mapping[str, Any], seed: Any,
            version: Optional[str] = None) -> str:
        """Compute the key as :class:`ResultCache` would (for logging)."""
        return result_key(experiment, params, seed, version)

    def load(self, key: str) -> None:
        """Always a miss."""
        return None

    def contains(self, key: str) -> bool:
        """Nothing is ever stored."""
        return False

    def store(self, key: str, artifact: Mapping[str, Any]) -> None:
        """Drop the artifact."""
        return None
