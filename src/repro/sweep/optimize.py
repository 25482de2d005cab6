"""Adaptive design-space optimizer over the sweep engine.

Where :func:`repro.sweep.driver.run_sweep` evaluates an explicit grid,
:func:`run_optimize` *searches*: it proposes batches of design points over
typed dimensions (:class:`IntDimension`, :class:`FloatDimension`,
:class:`ChoiceDimension`), evaluates each batch through the exact sweep
dispatch path (same executors, same content-addressed cache keys, same
tracer counters — see :func:`repro.sweep.driver.dispatch_points`), and uses
the observed metrics to steer the next batch.

The proposal engine is deliberately simple and *fully seeded*:

* **Round 0** draws ``initial_points`` uniform samples from the dimensions.
* **Later rounds** run successive halving + a Bayesian-lite acquisition:
  the elite set (best observed points by scalarised cost, halved every
  round) is perturbed with a shrinking radius into a candidate pool, mixed
  with a few uniform explorers; candidates are scored by a k-nearest
  inverse-distance surrogate of the cost minus an exploration bonus
  (distance to the nearest observed point), and the best ``batch_size``
  survivors are evaluated.
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

import hashlib
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.runner.cache import canonical_json
from repro.runner.catalog import jsonify
from repro.runner.engine import DEFAULT_SEED
from repro.runner.registry import ExperimentRegistry, default_registry
from repro.sweep.analysis import (_cost_vector, knee_point, pareto_front,
                                  require_metrics)
from repro.sweep.driver import (SweepPoint, build_points, dispatch_points,
                                _wide_row)
from repro.sweep.spec import SENSE_MAX, SENSE_MIN

if TYPE_CHECKING:
    import numpy as np

#: Seed-stream label prefix of the per-round proposal generators.
OPTIMIZE_SEED_STREAM = "sweep.optimize"

#: Normalised-cost penalty of a point missing an objective value (the
#: normalised observed range is [0, 1], so 2.0 is strictly worse than any
#: observed point).
MISSING_COST_PENALTY = 2.0

#: Perturbation radius of round 1 (fraction of each dimension's span),
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


@dataclass(frozen=True)
class IntDimension:
    """An integer dimension searched over the inclusive ``[low, high]`` range.

    >>> import numpy as np
    >>> IntDimension(3, 6).sample(np.random.default_rng(0)) in (3, 4, 5, 6)
    True
    """

    low: int
    high: int

    def __post_init__(self):
        if int(self.low) != self.low or int(self.high) != self.high:
            raise ValueError("IntDimension bounds must be integers")
        object.__setattr__(self, "low", int(self.low))
        object.__setattr__(self, "high", int(self.high))
        if self.high < self.low:
            raise ValueError("IntDimension needs high >= low")

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))

    def perturb(self, value: Any, rng: np.random.Generator,
                radius: float) -> int:
        span = max(1.0, float(self.high - self.low))
        step = rng.normal(0.0, radius * span)
        moved = int(round(float(value) + step))
        return int(min(self.high, max(self.low, moved)))

    def to_unit(self, value: Any) -> float:
        if self.high == self.low:
            return 0.5
        return (float(value) - self.low) / (self.high - self.low)

    def to_payload(self) -> Dict[str, Any]:
        return {"kind": "int", "low": self.low, "high": self.high}


@dataclass(frozen=True)
class FloatDimension:
    """A float dimension over ``[low, high]``; ``spacing="log"`` searches
    (samples, perturbs and measures distance) in log space.

    >>> import numpy as np
    >>> dim = FloatDimension(1e-3, 1.0, spacing="log")
    >>> 1e-3 <= dim.sample(np.random.default_rng(0)) <= 1.0
    True
    """

    low: float
    high: float
    spacing: str = "linear"

    def __post_init__(self):
        object.__setattr__(self, "low", float(self.low))
        object.__setattr__(self, "high", float(self.high))
        if self.high < self.low:
            raise ValueError("FloatDimension needs high >= low")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"Unknown spacing {self.spacing!r}")
        if self.spacing == "log" and self.low <= 0:
            raise ValueError("log spacing needs positive endpoints")

    def _bounds(self) -> Tuple[float, float]:
        if self.spacing == "log":
            return math.log(self.low), math.log(self.high)
        return self.low, self.high

    def _from_scale(self, scaled: float) -> float:
        if self.spacing == "log":
            return float(math.exp(scaled))
        return float(scaled)

    def _to_scale(self, value: Any) -> float:
        if self.spacing == "log":
            return math.log(float(value))
        return float(value)

    def sample(self, rng: np.random.Generator) -> float:
        lo, hi = self._bounds()
        return self._from_scale(float(rng.uniform(lo, hi)))

    def perturb(self, value: Any, rng: np.random.Generator,
                radius: float) -> float:
        lo, hi = self._bounds()
        span = hi - lo
        if span == 0:
            return float(self.low)
        moved = self._to_scale(value) + float(rng.normal(0.0, radius * span))
        return self._from_scale(min(hi, max(lo, moved)))

    def to_unit(self, value: Any) -> float:
        lo, hi = self._bounds()
        if hi == lo:
            return 0.5
        return (self._to_scale(value) - lo) / (hi - lo)

    def to_payload(self) -> Dict[str, Any]:
        return {"kind": "float", "low": self.low, "high": self.high,
                "spacing": self.spacing}


@dataclass(frozen=True)
class ChoiceDimension:
    """A categorical dimension over an explicit value tuple.

    Perturbation re-draws uniformly with a radius-dependent probability
    (categories have no neighbourhood structure); unit distance is by
    declaration index.

    >>> import numpy as np
    >>> ChoiceDimension((None, 2, 3)).sample(np.random.default_rng(1)) \
        in (None, 2, 3)
    True
    """

    values: Tuple[Any, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("ChoiceDimension needs at least one value")
        object.__setattr__(self, "values", tuple(self.values))

    def _index(self, value: Any) -> int:
        for index, candidate in enumerate(self.values):
            # values are canonical; discriminate bool from int spellings
            if isinstance(candidate, bool) != isinstance(value, bool):
                continue
            if candidate == value:
                return index
        raise ValueError(f"{value!r} is not one of {self.values!r}")

    def sample(self, rng: np.random.Generator) -> Any:
        return self.values[int(rng.integers(0, len(self.values)))]

    def perturb(self, value: Any, rng: np.random.Generator,
                radius: float) -> Any:
        if float(rng.random()) < max(0.25, radius):
            return self.sample(rng)
        return value

    def to_unit(self, value: Any) -> float:
        if len(self.values) == 1:
            return 0.5
        return self._index(value) / (len(self.values) - 1)

    def to_payload(self) -> Dict[str, Any]:
        return {"kind": "choice", "values": list(self.values)}


#: Payload ``kind`` -> dimension class, for :func:`dimension_from_payload`.
_DIMENSION_KINDS = {"int": IntDimension, "float": FloatDimension,
                    "choice": ChoiceDimension}


def dimension_from_payload(payload: Mapping[str, Any]):
    """Rebuild a dimension from its ``to_payload`` dict."""
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind not in _DIMENSION_KINDS:
        raise ValueError(f"Unknown dimension kind {kind!r}; known kinds: "
                         f"{', '.join(sorted(_DIMENSION_KINDS))}")
    if kind == "choice":
        return ChoiceDimension(tuple(data["values"]))
    return _DIMENSION_KINDS[kind](**data)


@dataclass(frozen=True)
class OptimizeSpec:
    """One declarative adaptive search over an experiment's design space.

    The optimizer sibling of :class:`repro.sweep.spec.SweepSpec`: the same
    build-time schema validation (unknown experiment/parameter or
    out-of-domain dimension bound fails before any compute), the same
    canonical JSON payload and stable hash, the same ``registry``-is-policy
    convention (excluded from identity).

    Attributes
    ----------
    name / experiment / base_params / seed / title / registry:
        As on :class:`~repro.sweep.spec.SweepSpec`; ``seed`` is both every
        point's experiment seed and the sole entropy source of the
        proposal engine.
    dimensions:
        Parameter name -> searched dimension.
    objectives:
        Metric name -> ``"min"``/``"max"``; **required** (an optimizer
        without objectives has nothing to optimise).
    max_points:
        Total evaluation budget across all rounds.
    initial_points:
        Size of the round-0 uniform batch.
    batch_size:
        Proposals evaluated per adaptive round.
    patience:
        Consecutive rounds the Pareto front may stay unchanged before the
        run stops as converged.
    max_rounds:
        Hard round cap (``None``: unlimited — budget or convergence stop
        the run).
    """

    name: str
    experiment: str
    dimensions: Mapping[str, Any]
    objectives: Mapping[str, str]
    base_params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    max_points: int = 16
    initial_points: int = 6
    batch_size: int = 3
    patience: int = 2
    max_rounds: Optional[int] = None
    title: str = ""
    registry: Optional[Any] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.dimensions:
            raise ValueError("OptimizeSpec needs at least one dimension")
        if not self.objectives:
            raise ValueError("OptimizeSpec needs at least one objective")
        object.__setattr__(self, "dimensions", dict(self.dimensions))
        object.__setattr__(self, "base_params", dict(self.base_params))
        object.__setattr__(self, "objectives", dict(self.objectives))
        overlap = set(self.dimensions) & set(self.base_params)
        if overlap:
            raise ValueError(
                f"Parameters {sorted(overlap)} appear both as dimensions "
                f"and in base_params; a proposed value would silently win")
        for metric, sense in self.objectives.items():
            if sense not in (SENSE_MIN, SENSE_MAX):
                raise ValueError(
                    f"Objective {metric!r} has sense {sense!r}; "
                    f"use '{SENSE_MIN}' or '{SENSE_MAX}'")
        if self.max_points < 1:
            raise ValueError("OptimizeSpec needs max_points >= 1")
        if self.initial_points < 1:
            raise ValueError("OptimizeSpec needs initial_points >= 1")
        if self.batch_size < 1:
            raise ValueError("OptimizeSpec needs batch_size >= 1")
        if self.patience < 1:
            raise ValueError("OptimizeSpec needs patience >= 1")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("OptimizeSpec needs max_rounds >= 1 (or None)")
        self._validate_against_schema()

    def _validate_against_schema(self) -> None:
        """Validate bounds/choices and base params against the experiment.

        Choice values and base parameters are stored in canonical coerced
        form (equivalent spellings hash identically — matching the
        engine's canonical cache keys); Int/Float dimension *bounds* are
        validated so an out-of-domain search range fails at build time.
        """
        registry = self.registry
        if registry is None:
            registry = default_registry()
        schema = registry.get(self.experiment).schema

        def canonical(name, value):
            return schema.validate(name, value, experiment=self.experiment)

        object.__setattr__(self, "base_params",
                           {name: canonical(name, value)
                            for name, value in self.base_params.items()})
        dimensions = {}
        for name, dimension in self.dimensions.items():
            if isinstance(dimension, ChoiceDimension):
                dimensions[name] = ChoiceDimension(
                    tuple(canonical(name, value)
                          for value in dimension.values))
            else:
                canonical(name, dimension.low)
                canonical(name, dimension.high)
                dimensions[name] = dimension
        object.__setattr__(self, "dimensions", dimensions)

    # -- derivation -----------------------------------------------------------
    def with_overrides(self, overrides: Mapping[str, Any]) -> "OptimizeSpec":
        """A copy with ``overrides`` merged into ``base_params``.

        Overriding a parameter the optimizer *searches* is rejected —
        pinning a dimension would silently change the design space.
        """
        overlap = sorted(set(overrides) & set(self.dimensions))
        if overlap:
            raise ValueError(
                f"Optimizer {self.name!r} searches {', '.join(overlap)} as "
                f"dimension(s); remove the override or define a new spec")
        merged = {**self.base_params, **dict(overrides)}
        return OptimizeSpec(name=self.name, experiment=self.experiment,
                            dimensions=self.dimensions,
                            objectives=self.objectives, base_params=merged,
                            seed=self.seed, max_points=self.max_points,
                            initial_points=self.initial_points,
                            batch_size=self.batch_size,
                            patience=self.patience,
                            max_rounds=self.max_rounds, title=self.title,
                            registry=self.registry)

    def dimension_names(self) -> List[str]:
        """The searched parameter names, in declaration order."""
        return list(self.dimensions)

    # -- serialisation --------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe description of the search (manifest / hash input)."""
        return {
            "name": self.name,
            "experiment": self.experiment,
            "dimensions": {name: dimension.to_payload()
                           for name, dimension in self.dimensions.items()},
            "objectives": dict(self.objectives),
            "base_params": jsonify(dict(self.base_params)),
            "seed": self.seed,
            "max_points": self.max_points,
            "initial_points": self.initial_points,
            "batch_size": self.batch_size,
            "patience": self.patience,
            "max_rounds": self.max_rounds,
            "title": self.title,
        }

    def spec_hash(self) -> str:
        """Stable 16-hex-digit identity of the search's *definition*."""
        encoded = canonical_json(self.to_payload()).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()[:16]


def optimize_spec_from_payload(payload: Mapping[str, Any]) -> OptimizeSpec:
    """Rebuild an :class:`OptimizeSpec` from :meth:`OptimizeSpec.to_payload`."""
    return OptimizeSpec(
        name=payload["name"],
        experiment=payload["experiment"],
        dimensions={name: dimension_from_payload(dimension)
                    for name, dimension in payload["dimensions"].items()},
        objectives=dict(payload["objectives"]),
        base_params=dict(payload.get("base_params", {})),
        seed=payload.get("seed", DEFAULT_SEED),
        max_points=payload.get("max_points", 16),
        initial_points=payload.get("initial_points", 6),
        batch_size=payload.get("batch_size", 3),
        patience=payload.get("patience", 2),
        max_rounds=payload.get("max_rounds"),
        title=payload.get("title", ""),
    )


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
class OptimizeResult:
    """Outcome of one :func:`run_optimize` call.

    Shaped like :class:`repro.sweep.driver.SweepRunResult` (wide ``rows``
    in evaluation order, cache accounting, metric names) plus the
    optimizer's trajectory: per-round batches and the stop reason.
    """

    spec: OptimizeSpec
    points: List[SweepPoint]
    rows: List[Dict[str, Any]]
    rounds: List[OptimizeRound]
    stop_reason: str
    computed_points: int
    cached_points: int
    elapsed_s: float
    metric_names: List[str] = field(default_factory=list)

    def front(self) -> List[Dict[str, Any]]:
        """The final Pareto front over the spec's objectives."""
        return pareto_front(self.rows, dict(self.spec.objectives))

    def knee(self) -> Optional[Dict[str, Any]]:
        """The knee point of the final front (utopia-distance rule)."""
        return knee_point(self.front(), dict(self.spec.objectives))

    def to_table(self, title: Optional[str] = None) -> str:
        """Render the evaluated points as an ASCII table."""
        from repro.analysis.tables import format_table
        headers = (["point"] + self.spec.dimension_names()
                   + self.metric_names)
        rows = [["-" if row.get(header) is None else row.get(header, "-")
                 for header in headers] for row in self.rows]
        return format_table(headers, rows,
                            title=title or f"optimize {self.spec.name} "
                                           f"({self.spec.experiment})")


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
    return tuple(spec.dimensions[name].to_unit(values[name])
                 for name in spec.dimension_names())


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
    names = spec.dimension_names()
    proposals: List[Dict[str, Any]] = []
    seen: set = set()
    for _ in range(spec.initial_points * 16):
        if len(proposals) >= spec.initial_points:
            break
        values = {name: spec.dimensions[name].sample(rng) for name in names}
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
    names = spec.dimension_names()
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
            consider({name: spec.dimensions[name].perturb(base[name], rng,
                                                          radius)
                      for name in names})
    for _ in range(max(2, elite_count)):
        consider({name: spec.dimensions[name].sample(rng) for name in names})
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
                          rounds=rounds, stop_reason=stop_reason,
                          computed_points=len(points) - cached,
                          cached_points=cached,
                          elapsed_s=time.perf_counter() - start,
                          metric_names=metric_names)
