"""Design-space exploration: declarative sweeps over registered experiments.

The subsystem turns any experiment of the engine's registry into a
multi-point design-space study:

* :mod:`repro.sweep.spec` — :class:`SweepSpec` with grid axes, stable
  JSON serialisation and a content hash, and :class:`OptimizeSpec`, the
  same spec plus a search budget;
* :mod:`repro.sweep.driver` — :func:`run_sweep`: expansion into engine
  tasks, cached points served in the caller and the rest shared with the
  forked worker pool, per-point cache keys so interrupted or repeated sweeps resume from the
  result cache instead of recomputing;
* :mod:`repro.sweep.optimize` — :func:`run_optimize`: adaptive search of
  a spec's grid (seeded successive halving + a k-NN acquisition)
  proposing batches of its points, dispatched through the same
  executor/cache path — a warm re-run replays the identical proposal
  sequence from the cache and recomputes nothing;
* :mod:`repro.sweep.analysis` — Pareto-front extraction and knee-point
  selection over arbitrary objectives;
* :mod:`repro.sweep.artifacts` — byte-reproducible CSV/JSON exports plus a
  manifest (spec hash, code version, seeds, cache keys);
* :mod:`repro.sweep.catalog` — the six registered headline sweeps and the
  ``case_study_power`` optimizer over its reference grid;
* :mod:`repro.sweep.cli` — the ``python -m repro sweep`` command tree.

Quick start::

    from repro.sweep import GridAxis, SweepSpec, run_sweep, pareto_front

    spec = SweepSpec(name="density", experiment="case_study_full",
                     axes={"total_nodes": GridAxis((400, 1600, 3200))},
                     objectives={"mean_power_uw": "min",
                                 "failure_probability": "min"})
    result = run_sweep(spec, jobs=4)          # re-run resumes from cache
    front = pareto_front(result.rows, spec.objectives)

The names resolve on first access.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.sweep.analysis": ("UnknownMetricError", "dominates", "knee_point",
                             "pareto_front", "require_metrics"),
    "repro.sweep.artifacts": ("export_sweep", "sweep_manifest"),
    "repro.sweep.catalog": ("SweepDefinition", "UnknownSweepError",
                            "get_definition", "get_optimize",
                            "get_optimize_definition", "get_sweep",
                            "iter_definitions", "iter_optimize_definitions",
                            "optimize_names", "sweep_names"),
    "repro.sweep.driver": ("SweepPoint", "SweepRunResult", "SweepStatus",
                           "build_points", "dispatch_points",
                           "expand_points", "extract_point_metrics",
                           "run_sweep", "sweep_status"),
    "repro.sweep.optimize": ("OptimizeResult", "OptimizeRound",
                             "run_optimize"),
    "repro.sweep.spec": ("GridAxis", "OptimizeSpec", "SweepSpec",
                         "axis_from_payload", "spec_from_payload"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
