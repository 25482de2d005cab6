"""Adaptive design-space optimizer over the sweep engine.

Where :func:`repro.sweep.driver.run_sweep` evaluates every point of a
grid, :func:`run_optimize` *searches* it: an
:class:`~repro.sweep.spec.OptimizeSpec` is a sweep's grid plus a budget,
and the optimizer proposes batches of that grid's points, evaluates each
batch through the exact sweep dispatch path (same executors, same
content-addressed cache keys, same tracer counters — see
:func:`repro.sweep.driver.dispatch_points`), and uses the observed metrics
to steer the next batch.

The proposal engine is deliberately simple and *fully seeded*:

* **Round 0** draws ``initial_points`` uniform samples from the axes.
* **Later rounds** run successive halving + a Bayesian-lite acquisition:
  the elite set (best observed points by scalarised cost, halved every
  round) is perturbed with a shrinking radius into a candidate pool, mixed
  with a few uniform explorers; candidates are scored by a k-nearest
  inverse-distance surrogate of the cost minus an exploration bonus
  (distance to the nearest observed point), and the best ``batch_size``
  survivors are evaluated.
* An axis of consecutive integers is perturbed by a Gaussian step in value
  space, rounded and clamped to its ends; any other axis is redrawn with
  a radius-dependent probability (its values have no neighbourhood).  A
  point's unit coordinate on an axis is its value's index over the last
  index.
* The *scalar* cost of a point is the mean of its per-objective costs
  (max objectives negated), each min–max normalised over the observations
  so far; a missing objective value scores a fixed worst-case penalty.

Nothing consults the wall clock or unseeded randomness: round ``r`` draws
its generator from ``spawn_seeds(seed, "sweep.optimize.<name>.round<r>")``,
independent of the budget.  Three consequences, all tested:

* the same spec re-proposes the identical point sequence every run;
* a warm re-run finds every point in the result cache and recomputes
  nothing (``computed_points == 0``), with byte-identical artifacts;
* a smaller ``max_points`` budget evaluates a *prefix* of a larger
  budget's sequence (truncation only ever drops proposals from the tail
  of a round).

Stopping: the run ends with a ``stop_reason`` of ``"converged"`` (the
Pareto front's point set unchanged for ``patience`` consecutive rounds),
``"budget_exhausted"`` (``max_points`` evaluations spent),
``"max_rounds"``, or ``"space_exhausted"`` (a round proposed nothing new —
the discrete space is fully observed).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.runner.cache import canonical_json
from repro.runner.registry import ExperimentRegistry
from repro.sweep.analysis import _cost_vector, pareto_front, require_metrics
from repro.sweep.driver import (SweepPoint, SweepRunResult, build_points,
                                dispatch_points, _wide_row)
from repro.sweep.spec import OptimizeSpec

if TYPE_CHECKING:
    import numpy as np

#: Seed-stream label prefix of the per-round proposal generators.
OPTIMIZE_SEED_STREAM = "sweep.optimize"

#: Normalised-cost penalty of a point missing an objective value (the
#: normalised observed range is [0, 1], so 2.0 is strictly worse than any
#: observed point).
MISSING_COST_PENALTY = 2.0

#: Perturbation radius of round 1 (fraction of each integer axis's span),
#: halved every later round down to the floor.
INITIAL_RADIUS = 0.3
MIN_RADIUS = 0.05

#: Perturbed candidates generated per elite, and the exploration weight of
#: the acquisition score (bonus per unit of distance to the nearest
#: observed point in the unit cube).
PERTURBATIONS_PER_ELITE = 4
EXPLORATION_WEIGHT = 0.5

#: Neighbours of the k-NN inverse-distance cost surrogate.
SURROGATE_NEIGHBOURS = 3


def _is_int_range(values: Tuple[Any, ...]) -> bool:
    """Whether an axis is consecutive ascending integers (searched as a
    range, not as a choice)."""
    return (all(type(value) is int for value in values)
            and values == tuple(range(values[0], values[0] + len(values))))


def _draw(values: Tuple[Any, ...], rng: np.random.Generator) -> Any:
    """One uniform draw from an axis's values."""
    return values[int(rng.integers(0, len(values)))]


def _perturb(values: Tuple[Any, ...], value: Any, rng: np.random.Generator,
             radius: float) -> Any:
    """A neighbour of ``value``: a rounded Gaussian step of ``radius`` ×
    the span on an integer range, else a redraw with probability
    ``max(0.25, radius)``."""
    if _is_int_range(values):
        low, high = values[0], values[-1]
        step = rng.normal(0.0, radius * max(1.0, float(high - low)))
        return int(min(high, max(low, int(round(float(value) + step)))))
    if float(rng.random()) < max(0.25, radius):
        return _draw(values, rng)
    return value


def _unit(values: Tuple[Any, ...], value: Any) -> float:
    """``value``'s index over the last index (0.5 on a one-value axis)."""
    if len(values) == 1:
        return 0.5
    for index, candidate in enumerate(values):
        # values are canonical; discriminate bool from int spellings
        if isinstance(candidate, bool) == isinstance(value, bool) \
                and candidate == value:
            return index / (len(values) - 1)
    raise ValueError(f"{value!r} is not one of {values!r}")


@dataclass(frozen=True)
class OptimizeRound:
    """One evaluated proposal batch of an optimizer run."""

    index: int
    proposals: List[Dict[str, Any]]
    point_indices: List[int]
    computed: int
    cached: int
    front_points: List[int]

    def to_payload(self) -> Dict[str, Any]:
        """Deterministic manifest entry: what was proposed and the front
        after the round (cache diagnostics deliberately excluded)."""
        return {"round": self.index,
                "proposals": [dict(values) for values in self.proposals],
                "point_indices": list(self.point_indices),
                "front_points": list(self.front_points)}


@dataclass
class OptimizeResult(SweepRunResult):
    """Outcome of one :func:`run_optimize` call: the
    :class:`~repro.sweep.driver.SweepRunResult` of the evaluated points, in
    evaluation order, plus the search trajectory — the per-round batches
    and the stop reason."""

    kind = "optimize"

    rounds: List[OptimizeRound] = field(default_factory=list)
    stop_reason: str = ""


def _round_rngs(spec: OptimizeSpec) -> Iterator[np.random.Generator]:
    """The (budget-independent) generator of every proposal round, in
    round order."""
    import numpy as np
    from repro.sim.random import spawn_seeds
    for round_index in itertools.count():
        stream = f"{OPTIMIZE_SEED_STREAM}.{spec.name}.round{round_index}"
        yield np.random.default_rng(spawn_seeds(spec.seed, stream, 1)[0])


def _proposal_token(values: Mapping[str, Any]) -> str:
    """Canonical identity of one proposal (dedup key)."""
    return canonical_json(dict(values))


def _scalar_costs(rows: Sequence[Mapping[str, Any]],
                  objectives: Mapping[str, str]) -> List[float]:
    """Scalarised cost per row: mean of min–max-normalised objective costs.

    Normalisation bounds come from the *finite observed* values of each
    objective; a missing value scores :data:`MISSING_COST_PENALTY` in that
    objective (strictly worse than any observation).  Lower is better.
    """
    vectors = [_cost_vector(row, objectives) for row in rows]
    dims = len(objectives)
    bounds: List[Tuple[float, float]] = []
    for d in range(dims):
        finite = [vector[d] for vector in vectors
                  if math.isfinite(vector[d])]
        bounds.append((min(finite), max(finite)) if finite else (0.0, 0.0))
    costs: List[float] = []
    for vector in vectors:
        total = 0.0
        for d in range(dims):
            low, high = bounds[d]
            if not math.isfinite(vector[d]):
                total += MISSING_COST_PENALTY
            elif high > low:
                total += (vector[d] - low) / (high - low)
        costs.append(total / dims)
    return costs


def _unit_vector(spec: OptimizeSpec,
                 values: Mapping[str, Any]) -> Tuple[float, ...]:
    return tuple(_unit(spec.axes[name].values, values[name])
                 for name in spec.axis_names())


def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def _surrogate_cost(candidate: Sequence[float],
                    observed: Sequence[Tuple[Tuple[float, ...], float]]
                    ) -> float:
    """k-NN inverse-distance prediction of the candidate's scalar cost."""
    distances = sorted(((_distance(candidate, unit), cost)
                        for unit, cost in observed), key=lambda d: d[0])
    nearest = distances[:SURROGATE_NEIGHBOURS]
    if nearest[0][0] < 1e-12:
        return nearest[0][1]
    weights = [1.0 / (distance + 1e-9) for distance, _ in nearest]
    return sum(weight * cost for weight, (_, cost)
               in zip(weights, nearest)) / sum(weights)


def _initial_proposals(spec: OptimizeSpec,
                       rng: np.random.Generator) -> List[Dict[str, Any]]:
    """Round 0: uniform samples, deduplicated, in draw order.

    Draws keep going (up to a fixed multiple of the request) until
    ``initial_points`` *distinct* proposals exist or the space looks
    exhausted — a small discrete space must not stall the run on
    collisions.
    """
    names = spec.axis_names()
    proposals: List[Dict[str, Any]] = []
    seen: set = set()
    for _ in range(spec.initial_points * 16):
        if len(proposals) >= spec.initial_points:
            break
        values = {name: _draw(spec.axes[name].values, rng) for name in names}
        token = _proposal_token(values)
        if token in seen:
            continue
        seen.add(token)
        proposals.append(values)
    return proposals


def _adaptive_proposals(spec: OptimizeSpec,
                        rng: np.random.Generator,
                        round_index: int,
                        rows: Sequence[Mapping[str, Any]],
                        evaluated_values: Sequence[Mapping[str, Any]],
                        observed_tokens: set) -> List[Dict[str, Any]]:
    """One successive-halving + acquisition round of proposals.

    Elites (the best observed points by scalar cost, halved every round)
    are perturbed with a shrinking radius and mixed with uniform
    explorers; novel candidates are ranked by surrogate cost minus the
    exploration bonus and the best ``batch_size`` survive.
    """
    names = spec.axis_names()
    costs = _scalar_costs(rows, spec.objectives)
    order = sorted(range(len(rows)), key=lambda i: (costs[i], i))
    elite_count = max(1, math.ceil(spec.initial_points / 2 ** round_index))
    elites = order[:elite_count]
    radius = max(MIN_RADIUS, INITIAL_RADIUS * 0.5 ** (round_index - 1))

    pool: List[Dict[str, Any]] = []
    pool_tokens: set = set()

    def consider(values: Dict[str, Any]) -> None:
        token = _proposal_token(values)
        if token in observed_tokens or token in pool_tokens:
            return
        pool_tokens.add(token)
        pool.append(values)

    for row_index in elites:
        base = evaluated_values[row_index]
        for _ in range(PERTURBATIONS_PER_ELITE):
            consider({name: _perturb(spec.axes[name].values, base[name],
                                     rng, radius)
                      for name in names})
    for _ in range(max(2, elite_count)):
        consider({name: _draw(spec.axes[name].values, rng)
                  for name in names})
    if not pool:
        return []

    observed = [(_unit_vector(spec, values), cost)
                for values, cost in zip(evaluated_values, costs)]

    def acquisition(values: Mapping[str, Any]) -> float:
        unit = _unit_vector(spec, values)
        nearest = min(_distance(unit, seen_unit)
                      for seen_unit, _ in observed)
        return _surrogate_cost(unit, observed) \
            - EXPLORATION_WEIGHT * nearest

    scored = sorted(enumerate(pool),
                    key=lambda item: (acquisition(item[1]), item[0]))
    return [values for _, values in scored[:spec.batch_size]]


def run_optimize(spec: OptimizeSpec,
                 jobs: Optional[int] = None,
                 cache: Any = True,
                 cache_root: Optional[str] = None,
                 registry: Optional[ExperimentRegistry] = None,
                 executor=None,
                 tracer: Any = None,
                 on_point=None) -> OptimizeResult:
    """Run the adaptive search; every batch resumes from the result cache.

    Proposal batches dispatch through
    :func:`repro.sweep.driver.dispatch_points` — the same executor fan-out,
    cache-key and tracer-counter path as :func:`run_sweep` — so a warm
    re-run of the same spec replays the identical proposal sequence from
    the cache and recomputes nothing.

    An objective no evaluated point produced raises
    :class:`repro.sweep.analysis.UnknownMetricError` (with did-you-mean
    suggestions) after the first batch, before any further compute.

    Parameters mirror :func:`repro.sweep.driver.run_sweep`; ``on_point``
    streams ``(point_index, wide_row)`` as points complete.

    Returns
    -------
    OptimizeResult
        Wide rows in evaluation order, the per-round trajectory and the
        stop reason.
    """
    from repro.obs.tracer import activate, current_tracer
    from repro.runner.engine import resolve_cache
    from repro.runner.executor import make_executor
    start = time.perf_counter()
    registry = registry or spec.registry  # None: points use the default
    cache = resolve_cache(cache, cache_root)
    executor = executor if executor is not None else make_executor(jobs)
    tracer = tracer if tracer is not None else current_tracer()

    points: List[SweepPoint] = []
    rows: List[Dict[str, Any]] = []
    evaluated_values: List[Dict[str, Any]] = []
    observed_tokens: set = set()
    outcomes: List[Dict[str, Any]] = []
    rounds: List[OptimizeRound] = []
    front_signature: Optional[frozenset] = None
    stale_rounds = 0
    stop_reason = "max_rounds"
    round_rngs = _round_rngs(spec)

    with activate(tracer), \
            tracer.span(f"optimize:{spec.name}", kind="optimize",
                        optimize=spec.name, experiment=spec.experiment,
                        max_points=spec.max_points):
        round_index = 0
        while True:
            rng = next(round_rngs)
            if round_index == 0:
                proposals = _initial_proposals(spec, rng)
            else:
                proposals = _adaptive_proposals(spec, rng, round_index,
                                                rows, evaluated_values,
                                                observed_tokens)
            if not proposals:
                stop_reason = "space_exhausted"
                break
            # Budget truncation happens here and only here — proposals are
            # generated budget-independently, so a smaller budget evaluates
            # a prefix of a larger budget's sequence.
            remaining = spec.max_points - len(points)
            proposals = proposals[:remaining]
            batch = build_points(spec.experiment, proposals,
                                 base_params=spec.base_params,
                                 seed=spec.seed, cache=cache,
                                 registry=registry, start_index=len(points))
            batch_outcomes = dispatch_points(
                spec.experiment, batch, spec.seed, cache=cache,
                registry=registry, executor=executor,
                tracer=tracer, on_point=on_point,
                label=f"optimize {spec.name} round {round_index}",
                span_name=f"optimize:{spec.name}:round{round_index}",
                span_attributes={"optimize": spec.name,
                                 "round": round_index})
            points.extend(batch)
            outcomes.extend(batch_outcomes)
            for point, outcome in zip(batch, batch_outcomes):
                rows.append(_wide_row(point, outcome))
                evaluated_values.append(dict(point.axis_values))
                observed_tokens.add(_proposal_token(point.axis_values))
            if round_index == 0:
                observed = sorted({name for outcome in outcomes
                                   for name in outcome["metrics"]})
                require_metrics(spec.objectives, observed,
                                context=f"optimize {spec.name!r}")

            front = pareto_front(rows, dict(spec.objectives))
            signature = frozenset(row["point"] for row in front)
            if signature == front_signature:
                stale_rounds += 1
            else:
                stale_rounds = 0
            front_signature = signature
            rounds.append(OptimizeRound(
                index=round_index, proposals=proposals,
                point_indices=[point.index for point in batch],
                computed=sum(1 for outcome in batch_outcomes
                             if not outcome["cache_hit"]),
                cached=sum(1 for outcome in batch_outcomes
                           if outcome["cache_hit"]),
                front_points=sorted(signature)))

            if len(points) >= spec.max_points:
                stop_reason = "budget_exhausted"
                break
            if stale_rounds >= spec.patience:
                stop_reason = "converged"
                break
            round_index += 1
            if spec.max_rounds is not None and round_index >= spec.max_rounds:
                stop_reason = "max_rounds"
                break

    metric_names = sorted({name for outcome in outcomes
                           for name in outcome["metrics"]})
    cached = sum(1 for outcome in outcomes if outcome["cache_hit"])
    return OptimizeResult(spec=spec, points=points, rows=rows,
                          computed_points=len(points) - cached,
                          cached_points=cached,
                          elapsed_s=time.perf_counter() - start,
                          metric_names=metric_names, rounds=rounds,
                          stop_reason=stop_reason)
