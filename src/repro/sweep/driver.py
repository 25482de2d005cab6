"""Sweep execution: expand a spec, dispatch points, resume from the cache.

Every expanded point of a :class:`repro.sweep.spec.SweepSpec` is one
:func:`repro.runner.engine.run_experiment` call, so it inherits the engine's
whole machinery: parameter validation against the registry, per-point
content-addressed cache keys and provenance-stamped artifacts.  The driver
adds the fan-out — the points the cache lacks are shared between the caller
and forked pool workers (:mod:`repro.runner.executor`), while the caller
serves the cached ones itself — and the resume semantics: a re-run (or an
interrupted run picked up again) finds every finished point in the cache
and recomputes nothing (``SweepRunResult.computed_points == 0`` on a warm
second run).

Results are collected two ways:

* *wide* rows (:attr:`SweepRunResult.rows`) — one row per point:
  ``{"point": i, <axis values...>, <metrics...>}``;
* *tidy long* rows (:meth:`SweepRunResult.long_rows`) — one row per
  ``(point, metric)``: ``{"point", <axis values...>, "metric", "value"}`` —
  the format the analysis helpers and the CSV/JSON artifact writers consume.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.obs.parallel import TracedExecutor
from repro.obs.tracer import activate, current_tracer
from repro.runner.engine import (_canonical_params, resolve_cache,
                                 run_experiment)
from repro.runner.executor import (ProcessExecutor, make_executor,
                                   run_ordered)
from repro.runner.registry import ExperimentRegistry, default_registry
from repro.sweep.analysis import knee_point, pareto_front
from repro.sweep.spec import SweepSpec

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SweepPoint:
    """One expanded design point of a sweep.

    ``axis_values`` is what the sweep varies; ``params`` the full override
    mapping handed to the engine (base parameters + axis values);
    ``cache_key`` the engine's content-addressed key of the point, which is
    what makes sweeps resumable.
    """

    index: int
    axis_values: Dict[str, Any]
    params: Dict[str, Any]
    cache_key: str


@dataclass
class SweepRunResult:
    """Outcome of one :func:`run_sweep` call.

    ``rows`` is the wide table (one dict per point, in expansion order);
    ``computed_points``/``cached_points`` record how much work the cache
    saved — a warm re-run of the same spec reports ``computed_points == 0``.
    """

    #: Label of the run's manifest, table and summary line.
    kind = "sweep"

    spec: SweepSpec
    points: List[SweepPoint]
    rows: List[Dict[str, Any]]
    computed_points: int
    cached_points: int
    elapsed_s: float
    metric_names: List[str] = field(default_factory=list)

    def long_rows(self) -> List[Dict[str, Any]]:
        """Tidy long-format view: one row per (point, metric)."""
        axis_names = self.spec.axis_names()
        rows: List[Dict[str, Any]] = []
        for wide in self.rows:
            base = {"point": wide["point"]}
            base.update({name: wide[name] for name in axis_names})
            for metric in self.metric_names:
                rows.append({**base, "metric": metric,
                             "value": wide.get(metric)})
        return rows

    def front(self) -> List[Dict[str, Any]]:
        """The Pareto front of the rows over the spec's objectives."""
        return pareto_front(self.rows, dict(self.spec.objectives))

    def knee(self) -> Optional[Dict[str, Any]]:
        """The knee point of the front (utopia-distance rule)."""
        return knee_point(self.front(), dict(self.spec.objectives))

    def to_table(self, title: Optional[str] = None) -> str:
        """Render the wide rows as an ASCII table."""
        from repro.analysis.tables import format_table
        headers = ["point"] + self.spec.axis_names() + self.metric_names
        rows = [["-" if row.get(header) is None else row.get(header, "-")
                 for header in headers] for row in self.rows]
        return format_table(headers, rows,
                            title=title or f"{self.kind} "
                                           f"{self.spec.name} "
                                           f"({self.spec.experiment})")


@dataclass
class SweepStatus:
    """Cache occupancy of a sweep without running anything."""

    spec: SweepSpec
    points: List[SweepPoint]
    done: List[bool]

    @property
    def done_count(self) -> int:
        return sum(self.done)

    @property
    def pending_count(self) -> int:
        return len(self.done) - self.done_count


def build_points(experiment: str,
                 value_sets: Sequence[Mapping[str, Any]],
                 base_params: Optional[Mapping[str, Any]] = None,
                 seed: Optional[int] = None,
                 cache: Any = True,
                 cache_root: Optional[str] = None,
                 registry: Optional[ExperimentRegistry] = None,
                 start_index: int = 0) -> List[SweepPoint]:
    """Turn explicit per-point value mappings into cache-keyed points.

    The general form of :func:`expand_points`: ``value_sets`` is any list
    of varied-parameter mappings (a cartesian grid, an optimizer's round of
    proposals, a hand-built list), each merged over ``base_params`` and
    resolved through the experiment's typed schema, with the engine's
    content-addressed cache key computed per point.  ``start_index``
    offsets the point indices so batches proposed across rounds number
    globally.
    """
    registry = registry or default_registry()
    experiment_spec = registry.get(experiment)
    cache_obj = resolve_cache(cache, cache_root)
    base = dict(base_params or {})
    points: List[SweepPoint] = []
    for offset, values in enumerate(value_sets):
        params = {**base, **values}
        resolved = experiment_spec.resolve_params(params)
        key = cache_obj.key(experiment_spec.name,
                            _canonical_params(resolved), seed)
        points.append(SweepPoint(index=start_index + offset,
                                 axis_values=dict(values),
                                 params=params, cache_key=key))
    return points


def expand_points(spec: SweepSpec,
                  cache: Any = True,
                  cache_root: Optional[str] = None,
                  registry: Optional[ExperimentRegistry] = None
                  ) -> List[SweepPoint]:
    """Expand a spec into concrete points with their engine cache keys.

    Axis and base parameters resolve through the experiment's typed schema
    here (``resolve_params``: validation plus canonical coercion — specs
    built from payloads of older code versions fail loudly rather than
    run), and the computed keys are exactly the keys
    :func:`repro.runner.engine.run_experiment` will use — resume for free.

    Registry precedence: an explicit ``registry`` argument, else the
    registry the spec itself was built against (``SweepSpec.registry``),
    else the default catalogue.
    """
    registry = registry or spec.registry or default_registry()
    return build_points(spec.experiment, spec.expand_axes(),
                        base_params=spec.base_params, seed=spec.seed,
                        cache=cache, cache_root=cache_root,
                        registry=registry)


def sweep_status(spec: SweepSpec,
                 cache: Any = True,
                 cache_root: Optional[str] = None,
                 registry: Optional[ExperimentRegistry] = None) -> SweepStatus:
    """Which points of ``spec`` are already in the result cache.

    Occupancy uses :meth:`repro.runner.cache.ResultCache.contains` — one
    lock-free ``stat`` per point, no JSON parse — so status on a
    thousand-point sweep never loads a thousand payloads.
    """
    cache_obj = resolve_cache(cache, cache_root)
    points = expand_points(spec, cache=cache_obj, cache_root=cache_root,
                           registry=registry)
    done = [cache_obj.contains(point.cache_key) for point in points]
    return SweepStatus(spec=spec, points=points, done=done)


def _is_scalar(value: Any) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def extract_point_metrics(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Reduce one experiment payload to the point's scalar metrics.

    Experiments with a network-level ``"aggregate"`` dict (the full-scale
    case study) contribute its scalars, with one level of nesting flattened
    (``energy_by_phase_j.transmit`` ...).  Other experiments contribute
    their scalar top-level payload fields plus ``num_rows``; single-row
    payloads additionally lift the row's scalar columns.
    """
    metrics: Dict[str, Any] = {}
    aggregate = payload.get("aggregate")
    if isinstance(aggregate, Mapping):
        for key, value in aggregate.items():
            if isinstance(value, Mapping):
                for subkey, subvalue in value.items():
                    if _is_scalar(subvalue):
                        metrics[f"{key}.{subkey}"] = subvalue
            elif _is_scalar(value):
                metrics[key] = value
        return metrics
    for key, value in payload.items():
        if key in ("rows", "report"):
            continue
        if _is_scalar(value):
            metrics[key] = value
    rows = payload.get("rows") or []
    metrics["num_rows"] = len(rows)
    if len(rows) == 1 and isinstance(rows[0], Mapping):
        for key, value in rows[0].items():
            if _is_scalar(value):
                metrics.setdefault(key, value)
    return metrics


def _run_point(task: Tuple[str, Dict[str, Any], int, Any,
                           Optional[ExperimentRegistry], Optional[int]]
               ) -> Dict[str, Any]:
    """Task function of one sweep point.

    Returns only what the caller needs (metrics + cache diagnostics),
    keeping the reply of a pool worker small even when the experiment's
    rows are large.  The point's own fan-outs get the sweep's ``jobs``
    cap; inside a pool worker they run in that worker.
    """
    experiment, params, seed, cache, registry, jobs = task
    run = run_experiment(experiment, params=params, jobs=jobs, seed=seed,
                         cache=cache, registry=registry)
    return {"cache_hit": run.cache_hit,
            "cache_key": run.cache_key,
            "elapsed_s": run.elapsed_s,
            "metrics": extract_point_metrics(run.payload)}


def dispatch_points(experiment: str,
                    points: Sequence[SweepPoint],
                    seed: Optional[int],
                    *,
                    cache: Any = True,
                    cache_root: Optional[str] = None,
                    registry: Optional[ExperimentRegistry] = None,
                    executor=None,
                    tracer: Any = None,
                    on_point: Optional[Callable[[int, Dict[str, Any]],
                                                None]] = None,
                    label: Optional[str] = None,
                    span_name: Optional[str] = None,
                    span_attributes: Optional[Mapping[str, Any]] = None
                    ) -> List[Dict[str, Any]]:
    """Run a batch of points through the engine, resuming from the cache.

    The shared dispatch path under :func:`run_sweep` and
    :func:`repro.sweep.optimize.run_optimize`: every point becomes one
    engine task of ``executor`` (the caller by default), its result served
    from the content-addressed cache when present.  The points the cache
    holds (:meth:`~repro.runner.cache.ResultCache.contains`, one ``stat``
    each) run in the caller; only the others are shared with pool
    workers, so a mostly cached sweep with one new point computes that
    point in the caller.  Returns one outcome dict per point, in point
    order: ``{"cache_hit", "cache_key", "elapsed_s", "metrics"}``.

    ``label`` names the batch in logs, ``span_name``/``span_attributes``
    the tracer span wrapping it (``sweep.points.cached`` /
    ``sweep.points.computed`` counters tick either way).
    """
    executor = executor if executor is not None else ProcessExecutor(jobs=1)
    tracer = tracer if tracer is not None else current_tracer()
    if tracer.enabled and not isinstance(executor, TracedExecutor):
        executor = TracedExecutor(executor, tracer)
    cache_obj = resolve_cache(cache, cache_root)
    points = list(points)
    tasks = [(experiment, point.params, seed, cache_obj, registry,
              executor.jobs) for point in points]
    cached = [index for index, point in enumerate(points)
              if cache_obj.contains(point.cache_key)]
    label = label or experiment

    def stream(index: int, outcome: Dict[str, Any]) -> None:
        tracer.count("sweep.points.cached" if outcome["cache_hit"]
                     else "sweep.points.computed")
        logger.debug("%s: point %d/%d %s in %.3fs",
                     label, index + 1, len(points),
                     "cached" if outcome["cache_hit"] else "computed",
                     outcome["elapsed_s"])
        if on_point is not None:
            on_point(points[index].index, _wide_row(points[index], outcome))

    with activate(tracer), \
            tracer.span(span_name or f"points:{label}", kind="sweep",
                        experiment=experiment, points=len(points),
                        **dict(span_attributes or {})):
        return run_ordered(executor, _run_point, tasks, on_result=stream,
                           local=cached)


def run_sweep(spec: SweepSpec,
              jobs: Optional[int] = None,
              cache: Any = True,
              cache_root: Optional[str] = None,
              registry: Optional[ExperimentRegistry] = None,
              executor=None,
              on_point: Optional[Callable[[int, Dict[str, Any]], None]] = None,
              tracer: Any = None
              ) -> SweepRunResult:
    """Run every point of ``spec``, resuming finished points from the cache.

    Parameters
    ----------
    spec:
        The design space to explore.
    jobs:
        Cap on the worker processes the points are shared between
        (:func:`repro.runner.executor.make_executor`); ``None`` is every
        usable CPU, ``1`` serial.  ``jobs`` changes wall-clock only
        (every point carries the sweep's master seed).
    cache / cache_root:
        Resolved once (:func:`repro.runner.engine.resolve_cache`) and
        used by every point, in the caller and in forked workers alike.
        ``cache=False`` disables resume (every point recomputes).
    registry:
        Experiment registry override (defaults to the full catalogue).
    executor:
        Explicit execution strategy, overriding ``jobs``.
    on_point:
        Optional ``(point_index, wide_row)`` callback streamed as points
        complete.
    tracer:
        Observability collector (:class:`repro.obs.Tracer`); defaults to
        the active tracer.  Records a ``sweep:<name>`` span, per-point
        progress counters (``sweep.points.cached`` / ``.computed``) and —
        through the per-task worker buffers — every point's engine spans.

    Returns
    -------
    SweepRunResult
        Wide rows in expansion order plus cache/compute accounting.
    """
    start = time.perf_counter()
    registry = registry or spec.registry  # None: points use the default
    cache = resolve_cache(cache, cache_root)
    points = expand_points(spec, cache=cache, registry=registry)
    executor = executor if executor is not None else make_executor(jobs)
    outcomes = dispatch_points(spec.experiment, points, spec.seed,
                               cache=cache, registry=registry,
                               executor=executor,
                               tracer=tracer, on_point=on_point,
                               label=f"sweep {spec.name}",
                               span_name=f"sweep:{spec.name}",
                               span_attributes={"sweep": spec.name})

    rows = [_wide_row(point, outcome)
            for point, outcome in zip(points, outcomes)]
    # Sorted, not first-seen: a cache-served payload comes back with
    # JSON-sorted keys, and exports must be byte-identical either way.
    metric_names = sorted({name for outcome in outcomes
                           for name in outcome["metrics"]})
    cached = sum(1 for outcome in outcomes if outcome["cache_hit"])
    return SweepRunResult(spec=spec, points=points, rows=rows,
                          computed_points=len(points) - cached,
                          cached_points=cached,
                          elapsed_s=time.perf_counter() - start,
                          metric_names=metric_names)


def _wide_row(point: SweepPoint, outcome: Dict[str, Any]) -> Dict[str, Any]:
    row: Dict[str, Any] = {"point": point.index}
    row.update(point.axis_values)
    row.update(outcome["metrics"])
    return row
