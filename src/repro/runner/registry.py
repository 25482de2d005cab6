"""Registry of every figure / case-study experiment the engine can run.

An :class:`ExperimentSpec` declares what one driver reproduces — its name,
the paper artefact, the tunable parameters with their defaults, the output
columns and a runtime estimate — plus the adapter callable that actually
executes it.  The registry is the single source the CLI, the examples and
the tests resolve experiments from, so ``python -m repro list`` is always
the authoritative catalogue.

The default registry is populated lazily (on the first
:func:`default_registry` call) from :mod:`repro.runner.catalog`, which
names every adapter without importing it, keeping ``import repro.runner``
and every cache hit cheap and cycle-free.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, Iterator, Mapping,
                    Optional, Tuple)

from repro.runner.params import ParamSchema, ParamSpec


class UnknownExperimentError(KeyError):
    """Raised when an experiment name is not in the registry."""

    def __init__(self, name: str, known: Tuple[str, ...]):
        self.name = name
        self.known = known
        suggestions = difflib.get_close_matches(name, known, n=3)
        message = f"Unknown experiment {name!r}. Known experiments: " \
                  f"{', '.join(known) or '(none)'}."
        if suggestions:
            message += f" Did you mean: {', '.join(suggestions)}?"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError quotes its payload; keep it readable
        return self.args[0]


class ExperimentSpec:
    """Declarative description of one runnable experiment.

    Parameters
    ----------
    name:
        Registry key and CLI name (e.g. ``fig6_csma``).
    title:
        One-line human description.
    figure:
        The paper artefact reproduced (``"Fig. 6"``, ``"Section 5"``, ...).
    runner:
        Adapter executing the experiment.  Called as
        ``runner(params, context)`` where ``params`` is the fully resolved
        parameter mapping and ``context`` a :class:`RunContext`; must return
        a JSON-serialisable dict with at least a ``"rows"`` list.
    params:
        The typed parameter declarations — an iterable of
        :class:`repro.runner.params.ParamSpec` (or a ready
        :class:`~repro.runner.params.ParamSchema`).  Every override, CLI
        ``--param`` and sweep axis validates against this schema.
    output_names:
        Names of the columns of the result rows (documentation; shown by
        ``python -m repro list``).
    expected_runtime_s:
        Rough single-core runtime of the default parameters (serial, cold
        cache), so users know what to expect before launching.
    supports_jobs:
        Whether the adapter actually fans work out to the executor; serial
        drivers still accept ``--jobs`` but will not use the pool.
    """

    __slots__ = ("name", "title", "figure", "runner", "schema",
                 "output_names", "expected_runtime_s", "supports_jobs")

    def __init__(self, name: str, title: str = "", figure: str = "",
                 runner: Optional[Callable[[Mapping[str, Any], "RunContext"],
                                           Dict[str, Any]]] = None,
                 *,
                 params: Optional[Iterable[ParamSpec]] = None,
                 output_names: Tuple[str, ...] = (),
                 expected_runtime_s: float = 1.0,
                 supports_jobs: bool = False):
        if isinstance(params, ParamSchema):
            schema = params
        else:
            schema = ParamSchema(params or ())
        self.name = name
        self.title = title
        self.figure = figure
        self.runner = runner
        self.schema = schema
        self.output_names = tuple(output_names)
        self.expected_runtime_s = expected_runtime_s
        self.supports_jobs = supports_jobs

    @property
    def default_params(self) -> Dict[str, Any]:
        """The canonical default of every parameter (derived from the schema)."""
        return self.schema.defaults()

    def resolve_params(self, overrides: Optional[Mapping[str, Any]] = None
                       ) -> Dict[str, Any]:
        """Merge ``overrides`` into the defaults, coercing every value.

        Values are canonicalised through the schema (``"4"`` resolves like
        ``4``), so equivalent spellings produce identical resolved
        parameters — and therefore identical cache keys.

        Raises
        ------
        UnknownParameterError
            (a ``KeyError``) for unknown names, with close-match
            suggestions.
        ParameterValueError
            (a ``ValueError``) for values outside a parameter's domain.
        """
        return self.schema.resolve(overrides, experiment=self.name)


@dataclass
class RunContext:
    """Ambient machinery handed to every adapter.

    Attributes
    ----------
    executor:
        Execution strategy (see :mod:`repro.runner.executor`) sized from the
        CLI ``--jobs`` flag.
    cache:
        Result cache (or :class:`repro.runner.cache.NullCache`); adapters may
        use it for expensive shared intermediates such as the contention
        table.
    seed:
        Master seed of the run; all task seeds must derive from it.
        ``None`` marks an intentionally non-reproducible run (the engine
        then hands the adapters a cache that never hits).
    """

    executor: Any
    cache: Any
    seed: Optional[int]


class ExperimentRegistry:
    """Name -> :class:`ExperimentSpec` mapping with helpful failure modes."""

    def __init__(self):
        self._specs: Dict[str, ExperimentSpec] = {}

    def register(self, spec: ExperimentSpec) -> ExperimentSpec:
        """Add a spec; duplicate names are rejected."""
        if spec.name in self._specs:
            raise ValueError(f"Experiment {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> ExperimentSpec:
        """The spec registered under ``name``.

        Raises
        ------
        UnknownExperimentError
            With close-match suggestions when the name is not registered.
        """
        try:
            return self._specs[name]
        except KeyError:
            raise UnknownExperimentError(name, self.names()) from None

    def names(self) -> Tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._specs))

    def __iter__(self) -> Iterator[ExperimentSpec]:
        for name in self.names():
            yield self._specs[name]

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)


_DEFAULT: Optional[ExperimentRegistry] = None


def default_registry() -> ExperimentRegistry:
    """The registry pre-populated with every paper experiment (built once)."""
    global _DEFAULT
    if _DEFAULT is None:
        from repro.runner.catalog import build_default_registry
        _DEFAULT = build_default_registry()
    return _DEFAULT
