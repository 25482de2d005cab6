"""Stable library façade of the reproduction — the documented entry point.

``repro.api`` is the one import a library user needs.  A :class:`Session`
bundles the run-time policy every call shares — cache directory, worker
count, master seed, experiment registry — so application code configures it
once and then talks to the engine and the sweep subsystem through three
methods:

>>> import repro.api as api
>>> session = api.Session(cache_dir="/tmp/doctest-repro-api")
>>> [spec.name for spec in session.experiments()][:2]
['case_study', 'case_study_full']

``session.run(name, **params)`` executes (or replays from the cache) one
registered experiment and returns a typed
:class:`~repro.runner.result.RunResult`; ``session.sweep(spec_or_name)``
runs a design-space exploration; ``session.cache`` exposes the underlying
result cache for inspection and maintenance.

Everything here is a thin veneer: the same registry, engine and cache the
``python -m repro`` CLI uses, with the same typed parameter validation
(unknown names fail with did-you-mean suggestions, values are coerced to
their declared types) and the same content-addressed cache keys — a
``session.run`` and the equivalent CLI invocation share artifacts.

Layering: ``repro.api`` sits *on top of* :mod:`repro.runner` and
:mod:`repro.sweep`; neither imports it back (asserted in CI).
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Union

from repro.runner.backends import (CacheBackend, DirectoryBackend,
                                   SharedDirectoryBackend, resolve_backend)
from repro.runner.cache import code_version
from repro.runner.engine import (DEFAULT_SEED, canonical_params,
                                 resolve_cache, run_experiment,
                                 validate_seed)
from repro.runner.params import (ParamSchema, ParamSpec, ParameterValueError,
                                 UnknownParameterError, parse_param_arg)
from repro.runner.registry import (ExperimentRegistry, ExperimentSpec,
                                   UnknownExperimentError, default_registry)
from repro.runner.result import RunResult
from repro.sweep.artifacts import sweep_json_text
from repro.sweep.catalog import UnknownSweepError, get_optimize, get_sweep
from repro.sweep.driver import SweepRunResult, run_sweep, sweep_status
from repro.sweep.optimize import OptimizeResult, run_optimize
from repro.sweep.spec import GridAxis, OptimizeSpec, SweepSpec

__all__ = [
    "Session",
    "RunResult",
    "SweepRunResult",
    "SweepSpec",
    "OptimizeResult",
    "OptimizeSpec",
    "GridAxis",
    "ParamSpec",
    "ParamSchema",
    "ParameterValueError",
    "UnknownParameterError",
    "UnknownExperimentError",
    "UnknownSweepError",
    "DEFAULT_SEED",
    "code_version",
    "canonical_params",
    "parse_param_arg",
    "sweep_json_text",
    "CacheBackend",
    "DirectoryBackend",
    "SharedDirectoryBackend",
    "resolve_backend",
]

_UNSET = object()


class Session:
    """One configured connection to the experiment engine.

    Parameters
    ----------
    cache_dir:
        Result-cache directory.  ``None`` uses the default resolution
        (``REPRO_CACHE_DIR`` environment variable, then
        ``~/.cache/repro-bougard``).
    cache:
        ``True`` (on-disk cache at ``cache_dir``), ``False`` (no caching),
        or a ready cache object.
    backend:
        Cache storage backend: a
        :class:`~repro.runner.backends.CacheBackend` instance or a kind
        name (``"directory"`` — the default local layout — or ``"shared"``
        — cross-process file locking for N workers on one cache
        directory), built over ``cache_dir``.  Mutually exclusive with a
        non-default ``cache`` argument.
    jobs:
        Default cap on the worker processes of every run, sweep and
        optimizer: the caller and forked children of the worker pool
        (:mod:`repro.pool`), each on a CPU of its own.  ``None`` (the
        default) is every CPU in ``os.sched_getaffinity(0)``; ``1`` is
        serial.  Rows are identical either way.  A fan-out started while
        another thread is alive (``repro serve``) stays in the calling
        process, and nothing forks at construction.
    seed:
        Default master seed — the session's *seed policy*.  Every
        :meth:`run` uses it unless overridden per call; ``None`` makes runs
        intentionally non-reproducible (and uncached).  Anything but
        ``None`` or a non-negative integer raises :class:`ValueError`.
    registry:
        Experiment registry to resolve names in; defaults to the full
        catalogue.
    trace:
        Path of a :mod:`repro.obs` trace artifact.  When set, every
        :meth:`run` and :meth:`sweep` records spans into one session-wide
        :class:`~repro.obs.Tracer` and the artifact at ``trace`` is
        rewritten after each call, so it always reflects the session so
        far.  Tracing never perturbs results (see
        ``docs/observability.md``).

    Examples
    --------
    >>> session = Session(cache_dir="/tmp/doctest-repro-api", jobs=1)
    >>> result = session.run("fig3_radio")
    >>> result.experiment
    'fig3_radio'
    """

    def __init__(self, *,
                 cache_dir: Optional[Union[str, os.PathLike]] = None,
                 cache: Any = True,
                 backend: Any = None,
                 jobs: Optional[int] = None,
                 seed: Optional[int] = DEFAULT_SEED,
                 registry: Optional[ExperimentRegistry] = None,
                 trace: Optional[Union[str, os.PathLike]] = None):
        validate_seed(seed)
        self._cache_root = None if cache_dir is None else str(cache_dir)
        if backend is not None:
            if cache is not True:
                raise ValueError("pass either backend= or cache=, not both")
            cache = resolve_backend(backend, self._cache_root)
        self._cache = resolve_cache(cache, self._cache_root)
        self._jobs = None if jobs is None else max(1, jobs)
        self._seed = seed
        self._registry = registry or default_registry()
        self._trace_path = None if trace is None else str(trace)
        self._tracer = None
        if self._trace_path is not None:
            from repro.obs import Tracer
            self._tracer = Tracer(name="session")

    # -- introspection ------------------------------------------------------------
    @property
    def cache(self):
        """The session's result cache (:class:`ResultCache` or
        :class:`NullCache`)."""
        return self._cache

    @property
    def jobs(self) -> Optional[int]:
        """Default worker cap of this session (``None``: every usable
        CPU)."""
        return self._jobs

    @property
    def seed(self) -> Optional[int]:
        """Default master seed of this session."""
        return self._seed

    @property
    def registry(self) -> ExperimentRegistry:
        """The experiment registry this session resolves names in."""
        return self._registry

    @property
    def tracer(self):
        """The session's :class:`repro.obs.Tracer` (``None`` untraced)."""
        return self._tracer

    def experiments(self) -> List[ExperimentSpec]:
        """Every registered experiment, sorted by name.

        Each spec carries its typed parameter schema (``spec.schema``) and
        output columns — everything ``python -m repro list --verbose``
        prints.
        """
        return list(self._registry)

    def experiment(self, name: str) -> ExperimentSpec:
        """One registered experiment by name (with did-you-mean on a miss)."""
        return self._registry.get(name)

    # -- execution ----------------------------------------------------------------
    def run(self, name: str, *, jobs: Optional[int] = None,
            seed: Any = _UNSET, **params: Any) -> RunResult:
        """Run one registered experiment and return its :class:`RunResult`.

        Parameters are keyword arguments validated against the experiment's
        typed schema — ``session.run("fig6_csma", num_windows=4)`` — and
        coerced to canonical values, so equivalent spellings share one
        cache entry.  ``jobs`` and ``seed`` default to the session's
        policy.

        Raises
        ------
        UnknownExperimentError
            Unknown experiment name (with suggestions).
        UnknownParameterError
            Unknown parameter name (with suggestions).
        ParameterValueError
            A value outside its parameter's domain.
        """
        result = run_experiment(
            name, params=params,
            jobs=self._jobs if jobs is None else jobs,
            seed=self._seed if seed is _UNSET else seed,
            cache=self._cache, registry=self._registry,
            tracer=self._tracer)
        self._flush_trace()
        return result

    def sweep(self, spec: Union[SweepSpec, str], *, quick: bool = False,
              jobs: Optional[int] = None) -> SweepRunResult:
        """Run a design-space sweep (a :class:`SweepSpec` or catalogue name).

        A string resolves through the sweep catalogue (``quick=True``
        selects the scaled-down CI variant).  Finished points are served
        from the session cache, so repeating a sweep recomputes nothing.
        """
        spec = self._resolve_sweep(spec, quick)
        result = run_sweep(spec, jobs=self._jobs if jobs is None else jobs,
                           cache=self._cache, cache_root=self._cache_root,
                           registry=spec.registry or self._registry,
                           tracer=self._tracer)
        self._flush_trace()
        return result

    def optimize(self, spec: Union[OptimizeSpec, str], *,
                 quick: bool = False,
                 jobs: Optional[int] = None) -> OptimizeResult:
        """Run an adaptive search of a grid (spec or catalogue name).

        A string resolves through the optimizer catalogue
        (:func:`repro.sweep.catalog.get_optimize`; ``quick=True`` selects
        the scaled-down CI variant).  Every proposal batch dispatches
        through the same executor/cache path as :meth:`sweep`, so a warm
        re-run replays the identical proposal sequence from the session
        cache and recomputes nothing.
        """
        spec = self._resolve_sweep(spec, quick, get_optimize)
        result = run_optimize(spec,
                              jobs=self._jobs if jobs is None else jobs,
                              cache=self._cache,
                              cache_root=self._cache_root,
                              registry=spec.registry or self._registry,
                              tracer=self._tracer)
        self._flush_trace()
        return result

    def cache_key(self, name: str, *, seed: Any = _UNSET,
                  **params: Any) -> str:
        """The engine cache key :meth:`run` would use — without running.

        Parameters validate and coerce through the experiment's typed
        schema exactly as in :meth:`run`, so equivalent spellings map to
        one key.  This is what lets layers above the façade (the service
        job queue) deduplicate work against the shared result cache.
        """
        spec = self._registry.get(name)
        resolved = spec.resolve_params(params)
        return self._cache.key(spec.name, canonical_params(resolved),
                               self._seed if seed is _UNSET else seed)

    def sweep_spec(self, spec: Union[SweepSpec, str], *,
                   quick: bool = False) -> SweepSpec:
        """Resolve a sweep catalogue name to its :class:`SweepSpec`.

        A ready spec passes through unchanged (``quick=True`` is only
        meaningful for catalogue names).  Unknown names raise
        :class:`~repro.sweep.catalog.UnknownSweepError` with suggestions.
        """
        return self._resolve_sweep(spec, quick)

    def _flush_trace(self) -> None:
        # Rewrite the artifact after every traced call so an interrupted
        # session still leaves a valid, current trace on disk.
        if self._tracer is not None:
            from repro.obs import write_trace
            write_trace(self._tracer, self._trace_path)

    def sweep_status(self, spec: Union[SweepSpec, str], *,
                     quick: bool = False):
        """Cache occupancy of a sweep without running anything."""
        spec = self._resolve_sweep(spec, quick)
        return sweep_status(spec, cache=self._cache,
                            cache_root=self._cache_root,
                            registry=spec.registry or self._registry)

    @staticmethod
    def _resolve_sweep(spec: Union[SweepSpec, str], quick: bool,
                       get=get_sweep) -> SweepSpec:
        if isinstance(spec, str):
            return get(spec, quick=quick)
        if quick:
            raise ValueError("quick=True only applies to catalogue names; "
                             "build the quick variant of an explicit "
                             f"{type(spec).__name__} yourself")
        return spec

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        root = getattr(self._cache, "root", None)
        return (f"Session(cache={str(root) if root else 'off'}, "
                f"jobs={self._jobs}, seed={self._seed})")
