"""Declarative description of a design-space sweep.

A :class:`SweepSpec` names one registered experiment and a set of *axes* —
parameter dimensions explored over an explicit grid (:class:`GridAxis`), an
evenly spaced range (:class:`RangeAxis`) or seeded random samples
(:class:`RandomAxis`).  Expanding the spec yields the cartesian product of
the axes in declaration order, each point a full parameter override for
:func:`repro.runner.engine.run_experiment` — which means every point gets
the engine's content-addressed cache key for free, and an interrupted sweep
resumes from the cache instead of recomputing (see
:mod:`repro.sweep.driver`).

Specs validate *at build time* against the target experiment's typed
parameter schema (:class:`repro.runner.params.ParamSchema`): an unknown
experiment, an unknown axis/base-parameter name or an out-of-domain value
raises before any compute, with a message naming the experiment, the
parameter and the allowed domain.

Specs serialise to plain JSON (:meth:`SweepSpec.to_payload` /
:func:`spec_from_payload`) and hash stably (:meth:`SweepSpec.spec_hash`), so
a sweep's exported manifest pins exactly what was explored.

>>> spec = SweepSpec(name="density", experiment="case_study_full",
...                  axes={"total_nodes": GridAxis((400, 1600))})
>>> [point["total_nodes"] for point in spec.expand_axes()]
[400, 1600]
>>> spec.spec_hash() == spec_from_payload(spec.to_payload()).spec_hash()
True
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.runner.cache import canonical_json
from repro.runner.catalog import jsonify
from repro.runner.engine import DEFAULT_SEED

#: Seed-stream label of the per-axis sampling seeds (random axes).
AXIS_SEED_STREAM = "sweep.axes"

#: Objective senses understood by the analysis layer.
SENSE_MIN = "min"
SENSE_MAX = "max"


def _coerce(value: float, dtype: str) -> Any:
    if dtype == "int":
        return int(round(value))
    return float(value)


def _dedupe(values: List[Any]) -> List[Any]:
    """Drop repeated values, keeping first occurrences in order.

    ``dtype="int"`` rounding can collapse neighbouring range/random values
    onto the same integer; duplicate design points would waste simulations
    and inflate every count, so resolved axes are always unique.
    """
    seen = set()
    unique = []
    for value in values:
        if value not in seen:
            seen.add(value)
            unique.append(value)
    return unique


@dataclass(frozen=True)
class GridAxis:
    """An explicit list of values (numeric or categorical).

    >>> GridAxis(("adaptive", "fixed")).resolve()
    ['adaptive', 'fixed']
    """

    values: Tuple[Any, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("GridAxis needs at least one value")
        object.__setattr__(self, "values", tuple(self.values))

    def resolve(self, seed: Optional[int] = None) -> List[Any]:
        """The axis values (the seed is ignored; grids are deterministic)."""
        return list(self.values)

    def to_payload(self) -> Dict[str, Any]:
        return {"kind": "grid", "values": list(self.values)}


@dataclass(frozen=True)
class RangeAxis:
    """``num`` evenly spaced values between ``start`` and ``stop`` inclusive.

    ``spacing="log"`` spaces the values geometrically (both endpoints must be
    positive); ``dtype="int"`` rounds every value to the nearest integer.

    >>> RangeAxis(start=400, stop=1600, num=4, dtype="int").resolve()
    [400, 800, 1200, 1600]
    """

    start: float
    stop: float
    num: int
    spacing: str = "linear"
    dtype: str = "float"

    def __post_init__(self):
        if self.num < 1:
            raise ValueError("RangeAxis needs num >= 1")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"Unknown spacing {self.spacing!r}")
        if self.dtype not in ("float", "int"):
            raise ValueError(f"Unknown dtype {self.dtype!r}")
        if self.spacing == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValueError("log spacing needs positive endpoints")

    def resolve(self, seed: Optional[int] = None) -> List[Any]:
        """The spaced values, de-duplicated after any integer rounding
        (the seed is ignored; ranges are deterministic)."""
        import numpy as np
        if self.spacing == "log":
            values = np.geomspace(self.start, self.stop, self.num)
        else:
            values = np.linspace(self.start, self.stop, self.num)
        return _dedupe([_coerce(value, self.dtype) for value in values])

    def to_payload(self) -> Dict[str, Any]:
        return {"kind": "range", "start": self.start, "stop": self.stop,
                "num": self.num, "spacing": self.spacing, "dtype": self.dtype}


@dataclass(frozen=True)
class RandomAxis:
    """``count`` seeded random samples from ``[low, high]``.

    The samples are drawn from the sweep's master seed and the axis name
    (see :meth:`SweepSpec.expand_axes`), so the same spec always explores
    the same points — a random axis is *sampled once per spec*, not per run.
    ``spacing="log"`` samples uniformly in log space.

    >>> axis = RandomAxis(low=1.0, high=2.0, count=3)
    >>> axis.resolve(seed=7) == axis.resolve(seed=7)
    True
    """

    low: float
    high: float
    count: int
    spacing: str = "linear"
    dtype: str = "float"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("RandomAxis needs count >= 1")
        if self.high < self.low:
            raise ValueError("RandomAxis needs high >= low")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"Unknown spacing {self.spacing!r}")
        if self.dtype not in ("float", "int"):
            raise ValueError(f"Unknown dtype {self.dtype!r}")
        if self.spacing == "log" and self.low <= 0:
            raise ValueError("log spacing needs positive endpoints")

    def resolve(self, seed: Optional[int] = None) -> List[Any]:
        """Draw the samples (sorted, de-duplicated after any integer
        rounding); ``seed`` fully determines them."""
        import numpy as np
        rng = np.random.default_rng(seed)
        if self.spacing == "log":
            values = np.exp(rng.uniform(np.log(self.low), np.log(self.high),
                                        self.count))
        else:
            values = rng.uniform(self.low, self.high, self.count)
        return _dedupe([_coerce(value, self.dtype) for value in sorted(values)])

    def to_payload(self) -> Dict[str, Any]:
        return {"kind": "random", "low": self.low, "high": self.high,
                "count": self.count, "spacing": self.spacing,
                "dtype": self.dtype}


#: Payload ``kind`` -> axis class, for :func:`axis_from_payload`.
_AXIS_KINDS = {"grid": GridAxis, "range": RangeAxis, "random": RandomAxis}


def axis_from_payload(payload: Mapping[str, Any]):
    """Rebuild an axis from its :meth:`to_payload` dict."""
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind not in _AXIS_KINDS:
        raise ValueError(f"Unknown axis kind {kind!r}; "
                         f"known kinds: {', '.join(sorted(_AXIS_KINDS))}")
    if kind == "grid":
        return GridAxis(tuple(data["values"]))
    return _AXIS_KINDS[kind](**data)


@dataclass(frozen=True)
class SweepSpec:
    """One declarative design-space exploration.

    Attributes
    ----------
    name:
        Identifier of the sweep (manifest, CLI, artifact file names).
    experiment:
        Registry name of the experiment every point runs
        (``python -m repro list``).
    axes:
        Parameter name -> axis.  Points are the cartesian product of the
        axes, varied in declaration order (the last axis varies fastest).
    base_params:
        Overrides shared by every point (merged under the axis values).
    seed:
        Master seed: both the experiment seed of every point and the
        entropy source of random axes.
    objectives:
        Metric name -> ``"min"``/``"max"`` for the Pareto analysis layer
        (:func:`repro.sweep.analysis.pareto_front`); optional.
    title:
        One-line human description.
    registry:
        Experiment registry the spec validates (and canonicalises) its
        parameters against; ``None`` uses the default catalogue.  Pass the
        same custom registry here and to
        :func:`repro.sweep.driver.run_sweep` when sweeping a non-catalogue
        experiment.  Not part of the spec's identity: excluded from
        payloads, hashes and equality.
    """

    name: str
    experiment: str
    axes: Mapping[str, Any]
    base_params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    objectives: Mapping[str, str] = field(default_factory=dict)
    title: str = ""
    registry: Optional[Any] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.axes:
            raise ValueError("SweepSpec needs at least one axis")
        object.__setattr__(self, "axes", dict(self.axes))
        object.__setattr__(self, "base_params", dict(self.base_params))
        object.__setattr__(self, "objectives", dict(self.objectives))
        overlap = set(self.axes) & set(self.base_params)
        if overlap:
            raise ValueError(
                f"Parameters {sorted(overlap)} appear both as axes and in "
                f"base_params; an axis value would silently win")
        for metric, sense in self.objectives.items():
            if sense not in (SENSE_MIN, SENSE_MAX):
                raise ValueError(
                    f"Objective {metric!r} has sense {sense!r}; "
                    f"use '{SENSE_MIN}' or '{SENSE_MAX}'")
        self._validate_against_schema()

    def _validate_against_schema(self) -> None:
        """Validate and canonicalise the spec against the experiment schema.

        Runs at spec-*build* time: an unknown experiment, an unknown
        parameter name or an out-of-domain axis value fails here — with a
        message naming the experiment, the parameter and the allowed domain
        — before any simulation (or even point expansion) starts.

        Base parameters and explicit grid values are stored in their
        *canonical* coerced form, so equivalent spellings of one design
        space (``superframes="4"`` vs ``4``) produce identical payloads,
        manifests and :meth:`spec_hash` values — matching the engine's
        canonical cache keys.
        """
        registry = self.registry
        if registry is None:
            from repro.runner.registry import default_registry
            registry = default_registry()
        schema = registry.get(self.experiment).schema

        def canonical(name, value):
            return schema.validate(name, value, experiment=self.experiment)

        object.__setattr__(self, "base_params",
                           {name: canonical(name, value)
                            for name, value in self.base_params.items()})
        axes = {name: GridAxis(tuple(canonical(name, value)
                                     for value in axis.values))
                if isinstance(axis, GridAxis) else axis
                for name, axis in self.axes.items()}
        object.__setattr__(self, "axes", axes)
        # Range/random axes generate their values; validate the generated
        # points (this also catches unknown non-grid axis names).
        for name, values in self.axis_values().items():
            for value in values:
                canonical(name, value)

    # -- derivation ---------------------------------------------------------------
    def with_overrides(self, overrides: Mapping[str, Any]) -> "SweepSpec":
        """A copy of this spec with ``overrides`` merged into ``base_params``.

        This is what the sweep CLI's ``--param`` flag builds; overriding a
        parameter the sweep *varies* is rejected (pinning an axis would
        silently change the design space's shape).  The copy re-validates
        against the experiment schema, so its hash and manifests stay
        honest.
        """
        overlap = sorted(set(overrides) & set(self.axes))
        if overlap:
            raise ValueError(
                f"Sweep {self.name!r} varies {', '.join(overlap)} as "
                f"axis/axes; remove the override or define a new spec")
        merged = {**self.base_params, **dict(overrides)}
        return SweepSpec(name=self.name, experiment=self.experiment,
                         axes=self.axes, base_params=merged, seed=self.seed,
                         objectives=self.objectives, title=self.title,
                         registry=self.registry)

    # -- expansion ----------------------------------------------------------------
    def axis_values(self) -> Dict[str, List[Any]]:
        """Resolved value list of every axis (random axes seeded)."""
        from repro.sim.random import spawn_seeds
        names = list(self.axes)
        seeds = spawn_seeds(self.seed, f"{AXIS_SEED_STREAM}.{self.name}",
                            len(names))
        return {name: self.axes[name].resolve(seed)
                for name, seed in zip(names, seeds)}

    def axis_names(self) -> List[str]:
        """The axis parameter names, in declaration order."""
        return list(self.axes)

    def expand_axes(self) -> List[Dict[str, Any]]:
        """Every axis-value combination, in deterministic grid order."""
        resolved = self.axis_values()
        names = list(resolved)
        return [dict(zip(names, combination))
                for combination in itertools.product(
                    *(resolved[name] for name in names))]

    def num_points(self) -> int:
        """Size of the expanded design space."""
        total = 1
        for values in self.axis_values().values():
            total *= len(values)
        return total

    # -- serialisation ------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe description of the sweep (manifest / hash input)."""
        return {
            "name": self.name,
            "experiment": self.experiment,
            "axes": {name: axis.to_payload()
                     for name, axis in self.axes.items()},
            "base_params": jsonify(dict(self.base_params)),
            "seed": self.seed,
            "objectives": dict(self.objectives),
            "title": self.title,
        }

    def spec_hash(self) -> str:
        """Stable 16-hex-digit identity of the sweep's *definition*.

        Depends only on the payload (axes, base parameters, seed,
        objectives) — not on the code version or any run outcome, so two
        runs of the same spec produce the same hash in their manifests.
        """
        encoded = canonical_json(self.to_payload()).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()[:16]


def spec_from_payload(payload: Mapping[str, Any]) -> SweepSpec:
    """Rebuild a :class:`SweepSpec` from :meth:`SweepSpec.to_payload`."""
    return SweepSpec(
        name=payload["name"],
        experiment=payload["experiment"],
        axes={name: axis_from_payload(axis)
              for name, axis in payload["axes"].items()},
        base_params=dict(payload.get("base_params", {})),
        seed=payload.get("seed", DEFAULT_SEED),
        objectives=dict(payload.get("objectives", {})),
        title=payload.get("title", ""),
    )
