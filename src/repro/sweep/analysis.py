"""Analysis helpers over sweep rows: Pareto fronts and knee points.

All helpers operate on plain row dicts (the wide rows of
:class:`repro.sweep.driver.SweepRunResult` — or any list of dicts), so they
compose with the artifact writers and with hand-built tables alike.

*Objectives* are a mapping ``metric name -> "min" | "max"``.  Internally
every objective is turned into a cost (max objectives are negated) and
missing values (``None`` or absent keys) are treated as *worst possible* —
a point that never delivered a packet has no delay to report, and must not
dominate a point that did.

>>> rows = [{"power": 1.0, "fail": 0.5}, {"power": 2.0, "fail": 0.1},
...         {"power": 3.0, "fail": 0.5}]
>>> front = pareto_front(rows, {"power": "min", "fail": "min"})
>>> [row["power"] for row in front]
[1.0, 2.0]
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runner.params import ReadableKeyError, did_you_mean
from repro.sweep.spec import SENSE_MAX, SENSE_MIN


class UnknownMetricError(ReadableKeyError):
    """A requested objective/metric name was produced by no point.

    Before this error existed, an objective absent from every payload
    flowed through :func:`repro.sweep.driver.extract_point_metrics` and
    ``long_rows`` as a silent ``None`` — which the Pareto helpers count as
    *worst possible*, so a typo'd objective quietly produced an empty or
    meaningless front.  The optimizer and the artifact exporters now fail
    loudly instead, with ``difflib`` close-match suggestions over the
    metric names the sweep actually observed.

    A :class:`KeyError` subclass so callers catching ``KeyError`` (the
    CLI's shared error path) render the message without a traceback.
    """

    def __init__(self, name: str, observed: Sequence[str],
                 context: str = ""):
        self.name = name
        self.observed = tuple(observed)
        prefix = f"{context}: " if context else ""
        super().__init__(
            f"{prefix}no point produced metric {name!r}; observed "
            f"metrics: {', '.join(sorted(self.observed)) or '(none)'}."
            + did_you_mean(name, self.observed))


def require_metrics(requested: Mapping[str, Any] | Sequence[str],
                    observed: Sequence[str],
                    context: str = "") -> None:
    """Fail loudly when a requested metric was produced by no point.

    ``requested`` is a sequence of metric names or an objectives mapping
    (its keys are checked); ``observed`` the metric names the sweep or
    optimizer actually collected.  Raises :class:`UnknownMetricError` —
    with did-you-mean suggestions — for the first missing name.
    """
    names = list(requested)
    available = set(observed)
    for name in names:
        if name not in available:
            raise UnknownMetricError(name, tuple(observed), context)


def _cost_vector(row: Mapping[str, Any],
                 objectives: Mapping[str, str]) -> Tuple[float, ...]:
    """The row's objectives as minimisation costs (missing -> +inf)."""
    costs: List[float] = []
    for metric, sense in objectives.items():
        value = row.get(metric)
        if value is None or not isinstance(value, (int, float)) \
                or isinstance(value, bool) or math.isnan(value):
            costs.append(math.inf)
        elif sense == SENSE_MAX:
            costs.append(-float(value))
        else:
            costs.append(float(value))
    return tuple(costs)


def _validate_objectives(objectives: Mapping[str, str]) -> None:
    if not objectives:
        raise ValueError("At least one objective is required")
    for metric, sense in objectives.items():
        if sense not in (SENSE_MIN, SENSE_MAX):
            raise ValueError(f"Objective {metric!r} has sense {sense!r}; "
                             f"use '{SENSE_MIN}' or '{SENSE_MAX}'")


def dominates(row: Mapping[str, Any], other: Mapping[str, Any],
              objectives: Mapping[str, str]) -> bool:
    """Whether ``row`` Pareto-dominates ``other``.

    ``row`` dominates when it is at least as good in every objective and
    strictly better in at least one.
    """
    _validate_objectives(objectives)
    a = _cost_vector(row, objectives)
    b = _cost_vector(other, objectives)
    return all(x <= y for x, y in zip(a, b)) and \
        any(x < y for x, y in zip(a, b))


def pareto_front(rows: Sequence[Mapping[str, Any]],
                 objectives: Mapping[str, str]) -> List[Dict[str, Any]]:
    """The non-dominated subset of ``rows``, in input order.

    Points whose *every* objective is missing (all-``inf`` cost vectors)
    are excluded — they carry no trade-off information.  Ties (identical
    cost vectors) all stay on the front.
    """
    _validate_objectives(objectives)
    costs = [_cost_vector(row, objectives) for row in rows]
    front: List[Dict[str, Any]] = []
    for i, (row, cost) in enumerate(zip(rows, costs)):
        if all(math.isinf(component) for component in cost):
            continue
        dominated = any(
            all(x <= y for x, y in zip(other, cost)) and
            any(x < y for x, y in zip(other, cost))
            for j, other in enumerate(costs) if j != i)
        if not dominated:
            front.append(dict(row))
    return front


def knee_point(rows: Sequence[Mapping[str, Any]],
               objectives: Mapping[str, str]) -> Optional[Dict[str, Any]]:
    """The balanced trade-off point of a front (utopia-distance rule).

    Every objective is normalised to ``[0, 1]`` over the given rows (a
    degenerate objective with zero spread contributes nothing) and the row
    closest to the all-best corner in Euclidean distance wins; ties go to
    the earliest row.  Typically called on the output of
    :func:`pareto_front`; returns ``None`` for no (usable) rows.
    """
    _validate_objectives(objectives)
    usable = [(row, _cost_vector(row, objectives)) for row in rows]
    usable = [(row, cost) for row, cost in usable
              if not any(math.isinf(component) for component in cost)]
    if not usable:
        return None
    dimensions = len(objectives)
    lows = [min(cost[d] for _, cost in usable) for d in range(dimensions)]
    highs = [max(cost[d] for _, cost in usable) for d in range(dimensions)]
    best, best_distance = None, math.inf
    for row, cost in usable:
        distance = 0.0
        for d in range(dimensions):
            span = highs[d] - lows[d]
            if span > 0:
                distance += ((cost[d] - lows[d]) / span) ** 2
        distance = math.sqrt(distance)
        if distance < best_distance:
            best, best_distance = row, distance
    return dict(best) if best is not None else None
