"""First-class result objects of the experiment engine.

A :class:`RunResult` is what :func:`repro.runner.engine.run_experiment` (and
therefore :meth:`repro.api.Session.run`) returns: the result rows plus
everything identifying how they were produced — resolved canonical
parameters, master seed, cache key and hit/miss, code-version token and
wall-clock.  It replaces the ad-hoc ``{"rows": [...]}`` dict plumbing: the
CLI output writers, the sweep tables and library callers all consume the
same typed accessors.

Serialisation goes through the shared writers of :mod:`repro.analysis.io`,
so ``result.to_json()`` is byte-identical to
``python -m repro run ... --output json`` and ``result.to_csv()`` to the
``--output csv`` export (declared ``output_names`` first, stable across
cache hits).

Two results compare equal when they describe the same computation — same
experiment, canonical parameters, seed and payload — regardless of whether
either was served from the cache or how long it took; a cache-hit replay is
*equal* to the run that populated the cache.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.io import ordered_columns, rows_to_csv_text, \
    rows_to_json_text
from repro.runner.registry import ExperimentSpec


@dataclass(eq=False)
class RunResult:
    """Outcome of one engine run.

    Attributes
    ----------
    spec:
        The resolved registry entry.
    params:
        The fully resolved *canonical* parameters of the run (defaults
        merged with coerced overrides — see
        :class:`repro.runner.params.ParamSchema`).
    seed / jobs:
        Master seed of the run, and the most processes one of its fan-outs
        (tasks or kernel lane pieces) actually used: 1 for a cache hit or
        a serial run.
    cache_hit:
        Whether the payload was served from the result cache.
    cache_key:
        Content hash identifying the artifact.
    code_version:
        Source-tree token the run (and its cache key) was produced under.
    elapsed_s:
        Wall-clock of the producing call (near zero on a hit).
    payload:
        The JSON-serialisable result; ``payload["rows"]`` is the row list.
    """

    spec: ExperimentSpec
    params: Dict[str, Any]
    seed: Optional[int]
    jobs: int
    cache_hit: bool
    cache_key: str
    code_version: str
    elapsed_s: float
    payload: Dict[str, Any]

    # -- identity -----------------------------------------------------------------
    @property
    def experiment(self) -> str:
        """Registry name of the experiment that produced this result."""
        return self.spec.name

    @property
    def output_names(self) -> Tuple[str, ...]:
        """The declared row columns of the experiment."""
        return tuple(self.spec.output_names)

    # -- rows and metrics ---------------------------------------------------------
    @property
    def rows(self) -> List[Dict[str, Any]]:
        """The result rows of the experiment."""
        return self.payload["rows"]

    @property
    def report(self) -> Optional[Dict[str, Any]]:
        """The paper-vs-measured report payload, when the experiment has one."""
        return self.payload.get("report")

    def column(self, name: str) -> List[Any]:
        """The values of one row column, in row order.

        Raises
        ------
        KeyError
            With close-match suggestions when no row has the column.
        """
        available = self.csv_columns()
        if name not in available:
            raise KeyError(_missing(name, available, "column",
                                    self.experiment))
        return [row.get(name) for row in self.rows]

    @property
    def metrics(self) -> Dict[str, Any]:
        """Scalar top-level payload fields (``rows``/``report`` excluded)."""
        return {key: value for key, value in self.payload.items()
                if key not in ("rows", "report")
                and (value is None or isinstance(value, (bool, int, float,
                                                         str)))}

    def metric(self, name: str) -> Any:
        """One scalar payload metric by name (with suggestions on a miss)."""
        metrics = self.metrics
        if name not in metrics:
            raise KeyError(_missing(name, tuple(metrics), "metric",
                                    self.experiment))
        return metrics[name]

    # -- serialisation ------------------------------------------------------------
    def csv_columns(self) -> List[str]:
        """Deterministic column order of the row table.

        A cache-served payload comes back with JSON-sorted row keys while a
        fresh run keeps driver insertion order — exports and tables must not
        depend on which one happened.  The spec's declared ``output_names``
        (in their documented order) come first, any extra row keys follow
        sorted.
        """
        present = ordered_columns(self.rows)
        declared = [name for name in self.spec.output_names
                    if name in present]
        return declared + sorted(name for name in present
                                 if name not in declared)

    def to_json(self) -> str:
        """The rows as deterministic JSON text.

        Byte-identical to ``python -m repro run ... --output json`` (which
        calls exactly this).
        """
        return rows_to_json_text(self.rows)

    def to_csv(self) -> str:
        """The rows as deterministic CSV text (stable column order)."""
        return rows_to_csv_text(self.rows, columns=self.csv_columns())

    def to_table(self, title: Optional[str] = None) -> str:
        """Render the rows as the ASCII table the CLI prints."""
        from repro.analysis.tables import format_table
        if not self.rows:
            return "(no rows)"
        columns = self.csv_columns()
        table_rows = [[row.get(column, "") for column in columns]
                      for row in self.rows]
        return format_table(columns, table_rows,
                            title=title or
                            f"{self.spec.name} ({self.spec.figure})")

    def to_dict(self) -> Dict[str, Any]:
        """Full provenance document (JSON-safe)."""
        return {
            "experiment": self.experiment,
            "params": dict(self.params),
            "seed": self.seed,
            "jobs": self.jobs,
            "cache_hit": self.cache_hit,
            "cache_key": self.cache_key,
            "code_version": self.code_version,
            "elapsed_s": self.elapsed_s,
            "payload": self.payload,
        }

    # -- equality -----------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Semantic equality: same computation, same data.

        Compares experiment, canonical parameters, seed, cache key and
        payload — *not* ``cache_hit``, ``jobs`` or ``elapsed_s``, so a
        cache-hit replay equals the run that populated the cache.
        """
        if not isinstance(other, RunResult):
            return NotImplemented
        return (self.experiment == other.experiment
                and self.params == other.params
                and self.seed == other.seed
                and self.cache_key == other.cache_key
                and self.payload == other.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"RunResult({self.experiment!r}, rows={len(self.rows)}, "
                f"seed={self.seed}, "
                f"{'cache hit' if self.cache_hit else 'computed'}, "
                f"key={self.cache_key[:12]})")


def _missing(name: str, known: Tuple[str, ...], kind: str,
             experiment: str) -> str:
    message = (f"Experiment {experiment!r} result has no {kind} {name!r}; "
               f"available: {', '.join(known) or '(none)'}.")
    suggestions = difflib.get_close_matches(name, known, n=3)
    if suggestions:
        message += f" Did you mean: {', '.join(suggestions)}?"
    return message
