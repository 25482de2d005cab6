"""Top-level orchestration: resolve, cache-check, execute, store.

:func:`run_experiment` is the single programmatic entry point of the
experiment engine — the CLI (``python -m repro run``), the examples and the
tests all go through it.  The flow for one run:

1. resolve the experiment name against the registry and merge parameter
   overrides into the spec's defaults;
2. compute the content-addressed cache key (experiment, parameters, seed,
   code version) and return the stored artifact on a hit;
3. otherwise execute the spec's adapter with an executor capped at
   ``jobs`` workers (every usable CPU by default), stamp the payload with
   its provenance, and store it.

Determinism contract: for a fixed seed the payload rows are identical
whatever ``jobs`` is, because every task carries its own seed spawned
from the master seed (see :func:`repro.sim.random.spawn_seeds`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping, Optional

from repro.constants import PAPER_SEED
from repro.obs.parallel import TracedExecutor
from repro.obs.tracer import activate, current_tracer
from repro.pool import usage
from repro.runner.backends import CacheBackend, resolve_backend
from repro.runner.cache import NullCache, ResultCache, code_version
from repro.runner.catalog import jsonify
from repro.runner.executor import make_executor
from repro.runner.registry import (ExperimentRegistry, RunContext,
                                   default_registry)
from repro.runner.result import RunResult

#: Master seed every engine run defaults to (the paper's publication year,
#: matching ``repro.experiments.common.EXPERIMENT_SEED``).
DEFAULT_SEED = PAPER_SEED


def validate_seed(seed: Any) -> None:
    """Raise :class:`ValueError` unless ``seed`` is ``None`` or an ``int`` ≥ 0.

    ``True`` would compute seed 1's rows under a second cache key, and a
    negative seed fails only inside the model, after the run was keyed (or
    a service job queued).
    """
    if seed is not None and (isinstance(seed, bool)
                             or not isinstance(seed, int) or seed < 0):
        raise ValueError(f"seed must be a non-negative integer or None, "
                         f"got {seed!r}")


def resolve_cache(cache: Any = True,
                  cache_root: Optional[str] = None):
    """Normalise the ``cache`` argument of :func:`run_experiment`.

    ``True`` builds the default on-disk cache (honouring ``cache_root`` and
    the ``REPRO_CACHE_DIR`` environment variable), ``False``/``None`` a
    :class:`NullCache`; a :class:`~repro.runner.backends.CacheBackend`
    instance or kind name (``"directory"``/``"shared"``, as
    ``run_experiment(cache=...)`` and ``Session(backend=...)`` accept
    them) wraps in a :class:`ResultCache` over that backend; an existing
    cache object is passed through.
    """
    if cache is True:
        return ResultCache(root=cache_root)
    if cache is False or cache is None:
        return NullCache()
    if isinstance(cache, (CacheBackend, str)):
        return ResultCache(backend=resolve_backend(cache, cache_root))
    return cache


def run_experiment(name: str,
                   params: Optional[Mapping[str, Any]] = None,
                   jobs: Optional[int] = None,
                   seed: Optional[int] = DEFAULT_SEED,
                   cache: Any = True,
                   cache_root: Optional[str] = None,
                   registry: Optional[ExperimentRegistry] = None,
                   tracer: Any = None
                   ) -> RunResult:
    """Run one registered experiment, consulting the result cache.

    Parameters
    ----------
    name:
        Registry name (``python -m repro list`` prints them all).
    params:
        Overrides merged into the spec's schema defaults and coerced to
        their declared types (``"4"`` resolves — and caches — like ``4``).
        Unknown keys raise
        :class:`~repro.runner.params.UnknownParameterError` (a
        ``KeyError``) with close-match suggestions; out-of-domain values
        raise :class:`~repro.runner.params.ParameterValueError`.
    jobs:
        Cap on the worker processes of the run's task fan-outs (the
        caller and forked children, :mod:`repro.pool`); ``None`` is every
        CPU in ``os.sched_getaffinity(0)``, ``1`` runs serially.  The
        rows are identical either way.
    seed:
        Master seed of the run (part of the cache key).  ``None`` draws
        unpredictable task seeds — such a run is *not* reproducible, so the
        result cache is bypassed entirely (neither looked up nor written):
        caching it would replay one arbitrary draw as if it were the
        deterministic answer.  Anything but ``None`` or a non-negative
        integer raises :class:`ValueError` (:func:`validate_seed`).
    cache:
        ``True`` (default on-disk cache), ``False`` (no caching), or a cache
        object with ``key``/``load``/``store``.
    cache_root:
        Cache directory when ``cache`` is ``True``.
    registry:
        Registry to resolve ``name`` in; defaults to the full catalogue.
    tracer:
        Observability collector (:class:`repro.obs.Tracer`); defaults to
        the currently *active* tracer (usually the disabled
        :data:`~repro.obs.NULL_TRACER`).  Tracing never perturbs the run:
        it feeds neither the cache key nor any RNG stream, so a traced
        run's payload equals the untraced one for the same seed.

    Returns
    -------
    RunResult
        Rows, provenance and cache diagnostics of the run; its ``jobs`` is
        the most processes one of the run's fan-outs (tasks or kernel lane
        pieces) actually used: 1 for a cache hit or a serial run.
    """
    validate_seed(seed)
    registry = registry or default_registry()
    spec = registry.get(name)
    resolved = spec.resolve_params(params)
    if seed is None:
        cache_obj = NullCache()
    else:
        cache_obj = resolve_cache(cache, cache_root)
    key = cache_obj.key(spec.name, _canonical_params(resolved), seed)

    tracer = tracer if tracer is not None else current_tracer()
    # ``jobs`` is deliberately NOT a span attribute: the deterministic view
    # of a trace must be identical for serial and parallel runs of one
    # workload (worker ids and meters live on the timing side).
    with activate(tracer), \
            tracer.span(f"run:{spec.name}", kind="run", experiment=spec.name,
                        seed=seed):
        start = time.perf_counter()
        with tracer.span("cache.lookup", kind="cache"):
            stored = cache_obj.load(key)
        if stored is not None:
            return RunResult(spec=spec, params=resolved, seed=seed,
                             jobs=1, cache_hit=True, cache_key=key,
                             code_version=stored.get("code_version",
                                                     code_version()),
                             elapsed_s=time.perf_counter() - start,
                             payload=stored["payload"])

        executor = make_executor(None if jobs is None else max(1, jobs))
        if tracer.enabled:
            executor = TracedExecutor(executor, tracer)
        context = RunContext(executor=executor, cache=cache_obj, seed=seed)
        with usage() as fan_outs, \
                tracer.span(f"driver:{spec.name}", kind="driver"):
            payload = spec.runner(resolved, context)
        elapsed = time.perf_counter() - start
        try:
            with tracer.span("cache.store", kind="cache"):
                cache_obj.store(key, {
                    "experiment": spec.name,
                    "params": _canonical_params(resolved),
                    "seed": seed,
                    "code_version": code_version(),
                    "elapsed_s": elapsed,
                    "payload": payload,
                })
        except OSError:
            pass  # unwritable cache must not lose a finished computation
        return RunResult(spec=spec, params=resolved, seed=seed,
                         jobs=max(fan_outs, default=1),
                         cache_hit=False, cache_key=key,
                         code_version=code_version(), elapsed_s=elapsed,
                         payload=payload)


def _canonical_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Parameters as they enter the cache key (JSON-safe, tuples as lists)."""
    return jsonify(dict(params))


def canonical_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Public form of :func:`_canonical_params` — the exact JSON-safe
    parameter mapping that enters a run's cache key.  Callers above the
    runner (``Session.cache_key``, the service job hasher) use it so their
    identities coincide with the engine's."""
    return _canonical_params(params)
