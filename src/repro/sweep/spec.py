"""Declarative description of a design-space sweep or search.

A :class:`SweepSpec` names one registered experiment and a set of *axes* —
parameters explored over explicit value tuples (:class:`GridAxis`).
Expanding the spec yields the cartesian product of the axes in declaration
order, each point a full parameter override for
:func:`repro.runner.engine.run_experiment` — which means every point gets
the engine's content-addressed cache key for free, and an interrupted sweep
resumes from the cache instead of recomputing (see
:mod:`repro.sweep.driver`).  An :class:`OptimizeSpec` is the same spec plus
a search budget: :func:`repro.sweep.optimize.run_optimize` proposes points
of its grid instead of expanding all of them.

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

import dataclasses
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.runner.cache import canonical_json
from repro.runner.catalog import jsonify
from repro.runner.engine import DEFAULT_SEED

#: Objective senses understood by the analysis layer.
SENSE_MIN = "min"
SENSE_MAX = "max"


@dataclass(frozen=True)
class GridAxis:
    """An explicit tuple of values (numeric or categorical).

    >>> GridAxis(("adaptive", "fixed")).values
    ('adaptive', 'fixed')
    """

    values: Tuple[Any, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("GridAxis needs at least one value")
        object.__setattr__(self, "values", tuple(self.values))

    def to_payload(self) -> Dict[str, Any]:
        return {"kind": "grid", "values": list(self.values)}


def axis_from_payload(payload: Mapping[str, Any]) -> GridAxis:
    """Rebuild an axis from its :meth:`GridAxis.to_payload` dict."""
    kind = payload.get("kind")
    if kind != "grid":
        raise ValueError(f"Unknown axis kind {kind!r}; the only kind is "
                         f"'grid'")
    return GridAxis(tuple(payload["values"]))


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
        Parameter name -> :class:`GridAxis`.  Points are the cartesian
        product of the axes, varied in declaration order (the last axis
        varies fastest).
    base_params:
        Overrides shared by every point (merged under the axis values).
    seed:
        Master seed: the experiment seed of every point.
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
    axes: Mapping[str, GridAxis]
    base_params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    objectives: Mapping[str, str] = field(default_factory=dict)
    title: str = ""
    registry: Optional[Any] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.axes:
            raise ValueError(f"{type(self).__name__} needs at least one axis")
        object.__setattr__(self, "axes", dict(self.axes))
        object.__setattr__(self, "base_params", dict(self.base_params))
        object.__setattr__(self, "objectives", dict(self.objectives))
        for name, axis in self.axes.items():
            if not isinstance(axis, GridAxis):
                raise TypeError(f"Axis {name!r} is a {type(axis).__name__}; "
                                f"give a GridAxis of its values")
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
        parameter name or any out-of-domain axis value fails here — with a
        message naming the experiment, the parameter, the value and the
        allowed domain — before any simulation (or even point expansion)
        starts.

        Base parameters and axis values are stored in their *canonical*
        coerced form, so equivalent spellings of one design space
        (``superframes="4"`` vs ``4``) produce identical payloads,
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
        object.__setattr__(self, "axes", {
            name: GridAxis(tuple(canonical(name, value)
                                 for value in axis.values))
            for name, axis in self.axes.items()})

    # -- derivation ---------------------------------------------------------------
    def with_overrides(self, overrides: Mapping[str, Any]) -> "SweepSpec":
        """A copy of this spec with ``overrides`` merged into ``base_params``.

        This is what the sweep CLI's ``--param`` flag builds; overriding a
        parameter the spec *varies* is rejected (pinning an axis would
        silently change the design space's shape).  The copy re-validates
        against the experiment schema, so its hash and manifests stay
        honest.
        """
        overlap = sorted(set(overrides) & set(self.axes))
        if overlap:
            raise ValueError(
                f"Sweep {self.name!r} varies {', '.join(overlap)} as "
                f"axis/axes; remove the override or define a new spec")
        return dataclasses.replace(
            self, base_params={**self.base_params, **dict(overrides)})

    # -- expansion ----------------------------------------------------------------
    def axis_values(self) -> Dict[str, List[Any]]:
        """The value list of every axis."""
        return {name: list(axis.values) for name, axis in self.axes.items()}

    def axis_names(self) -> List[str]:
        """The axis parameter names, in declaration order."""
        return list(self.axes)

    def expand_axes(self) -> List[Dict[str, Any]]:
        """Every axis-value combination, in deterministic grid order."""
        names = self.axis_names()
        return [dict(zip(names, combination))
                for combination in itertools.product(
                    *(self.axes[name].values for name in names))]

    def num_points(self) -> int:
        """Size of the expanded design space."""
        total = 1
        for axis in self.axes.values():
            total *= len(axis.values)
        return total

    # -- serialisation ------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe description of the spec (manifest / hash input): every
        field but the registry."""
        payload = {spec_field.name: getattr(self, spec_field.name)
                   for spec_field in dataclasses.fields(self)
                   if spec_field.compare}
        payload.update(
            axes={name: axis.to_payload() for name, axis in self.axes.items()},
            base_params=jsonify(dict(self.base_params)),
            objectives=dict(self.objectives))
        return payload

    def spec_hash(self) -> str:
        """Stable 16-hex-digit identity of the spec's *definition*.

        Depends only on the payload (axes, base parameters, seed,
        objectives, an optimizer's budget) — not on the code version or any
        run outcome, so two runs of the same spec produce the same hash in
        their manifests.
        """
        encoded = canonical_json(self.to_payload()).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()[:16]


@dataclass(frozen=True)
class OptimizeSpec(SweepSpec):
    """A sweep's grid plus a search budget: an adaptive search.

    :func:`repro.sweep.optimize.run_optimize` proposes points of the axes'
    grid round by round instead of expanding all of them.  Everything else
    is the :class:`SweepSpec`'s: every axis value is validated against the
    experiment's schema when the spec is built, so a search space with an
    out-of-domain value fails before any compute (a constraint across
    parameters, such as a superframe order above the beacon order, is
    checked only when a point runs); the payload, hash and ``registry``
    convention are the same.  ``seed`` is both every point's experiment
    seed and the sole entropy source of the proposals.

    Attributes
    ----------
    objectives:
        **Required** (an optimizer without objectives has nothing to
        optimise).
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

    max_points: int = 16
    initial_points: int = 6
    batch_size: int = 3
    patience: int = 2
    max_rounds: Optional[int] = None

    def __post_init__(self):
        if not self.objectives:
            raise ValueError("OptimizeSpec needs at least one objective")
        for knob in ("max_points", "initial_points", "batch_size",
                     "patience"):
            if getattr(self, knob) < 1:
                raise ValueError(f"OptimizeSpec needs {knob} >= 1")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("OptimizeSpec needs max_rounds >= 1 (or None)")
        super().__post_init__()


def spec_from_payload(payload: Mapping[str, Any]) -> SweepSpec:
    """Rebuild a spec from :meth:`SweepSpec.to_payload` — an
    :class:`OptimizeSpec` when the payload carries a search budget."""
    data = dict(payload)
    data["axes"] = {name: axis_from_payload(axis)
                    for name, axis in data["axes"].items()}
    return (OptimizeSpec if "max_points" in data else SweepSpec)(**data)
