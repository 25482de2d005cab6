"""Experiment engine: registry, parallel executors and result caching.

This package turns the per-figure drivers of :mod:`repro.experiments` into
one orchestrated system:

* :mod:`repro.runner.params` — typed parameter schemas
  (:class:`ParamSpec`/:class:`ParamSchema`): validation, coercion to
  canonical values and did-you-mean errors shared by every entry point;
* :mod:`repro.runner.registry` — :class:`ExperimentSpec` and the registry
  lookup with helpful errors;
* :mod:`repro.runner.catalog` — the declarative catalogue of every paper
  experiment (name, typed schema, outputs); light to import, it reaches
  each adapter only when the experiment computes;
* :mod:`repro.runner.result` — :class:`RunResult`, the first-class result
  object every engine run returns (rows, metric accessors, provenance,
  deterministic ``to_table``/``to_json``/``to_csv``);
* :mod:`repro.runner.executor` — the worker-pool execution strategy
  (one job runs every task in the caller);
* :mod:`repro.runner.cache` — content-addressed on-disk JSON cache keyed by
  (experiment, parameters, seed, code version);
* :mod:`repro.runner.drivers` — adapters mapping each paper driver onto the
  engine contract (imported on an experiment's first computed run);
* :mod:`repro.runner.engine` — :func:`run_experiment`, the single
  programmatic entry point;
* :mod:`repro.runner.cli` — the ``python -m repro`` command line.

Determinism is the engine's core guarantee: every parallel task carries its
own seed spawned from the run's master seed, so ``--jobs N`` changes the
wall-clock, never the rows.

The names below resolve on first access: importing one runner module never
imports the others.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.runner.cache": ("NullCache", "ResultCache", "code_version"),
    "repro.runner.engine": ("DEFAULT_SEED", "run_experiment"),
    "repro.runner.executor": ("ProcessExecutor", "make_executor",
                              "run_ordered"),
    "repro.runner.params": ("ParamSchema", "ParamSpec",
                            "ParameterValueError", "UnknownParameterError",
                            "parse_param"),
    "repro.runner.registry": ("ExperimentRegistry", "ExperimentSpec",
                              "RunContext", "UnknownExperimentError",
                              "default_registry"),
    "repro.runner.result": ("RunResult",),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
