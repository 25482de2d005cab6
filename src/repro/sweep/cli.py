"""CLI of the design-space exploration subsystem.

Wired into ``python -m repro`` by :mod:`repro.runner.cli`::

    python -m repro sweep list                        # registered sweeps
    python -m repro sweep run node_density --quick    # run (resumes from cache)
    python -m repro sweep run duty_cycle -j 4 --export out/
    python -m repro sweep run node_density --param superframes=10
    python -m repro sweep status node_density --quick # cache occupancy
    python -m repro sweep export tx_policy --quick --out out/
    python -m repro sweep optimize case_study_power --quick --export out/

``run`` prints the wide result table, the Pareto front over the sweep's
objectives and the knee point; ``--export`` (or the ``export`` command)
writes the CSV/JSON tables plus the reproducibility manifest via
:mod:`repro.sweep.artifacts`.  ``status`` computes every point's engine
cache key and reports which points are already done — an interrupted sweep
shows partial occupancy and ``run`` will only compute the rest.
``optimize`` runs a registered adaptive search of its reference sweep's
grid (:mod:`repro.sweep.optimize`) through ``run``'s printing, resume and
export: a warm re-run replays the identical proposal sequence from the
cache and recomputes nothing.

Output discipline matches :mod:`repro.runner.cli`: result tables and the
summary/``spec_hash`` lines stay on stdout; auxiliary status ("wrote ...")
and ``error:`` lines go through the ``repro`` logger to stderr.
"""

from __future__ import annotations

import argparse
import logging

# Shared --param reader — one table, one behaviour for both the runner and
# the sweep CLI (see repro.runner.params.parse_param).
from repro.runner.params import parse_param_arg as _parse_param
from repro.sweep.artifacts import export_sweep
from repro.sweep.catalog import (get_optimize, get_sweep, iter_definitions,
                                 iter_optimize_definitions)
from repro.sweep.driver import run_sweep, sweep_status
from repro.sweep.optimize import OptimizeResult, run_optimize
from repro.sweep.spec import SweepSpec

logger = logging.getLogger(__name__)


def add_sweep_parser(commands) -> None:
    """Attach the ``sweep`` command tree to the main CLI's subparsers."""
    sweep_parser = commands.add_parser(
        "sweep", help="design-space exploration over registered experiments")
    actions = sweep_parser.add_subparsers(dest="sweep_command", required=True)

    list_parser = actions.add_parser(
        "list", help="catalogue of registered sweeps")
    list_parser.add_argument("--verbose", action="store_true",
                             help="include axes and base parameters")

    def common(parser: argparse.ArgumentParser, dest: str = "sweep",
               noun: str = "sweep") -> None:
        parser.add_argument(dest, help=f"registered {noun} name "
                                       f"(see 'sweep list')")
        parser.add_argument("--quick", action="store_true",
                            help=f"scaled-down CI variant of the {noun}")
        parser.add_argument("--cache-dir", default=None,
                            help="result cache directory (default "
                                 "REPRO_CACHE_DIR or ~/.cache/repro-bougard)")
        parser.add_argument("--param", action="append", type=_parse_param,
                            default=[], metavar="KEY=VALUE",
                            help=f"override one base parameter of the {noun} "
                                 "(repeatable; validated against the "
                                 "experiment schema; axes cannot be "
                                 "overridden)")

    def jobs(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--jobs", "-j", type=int, default=None,
                            help="cap on the worker processes the uncached "
                                 "points are shared between (default: "
                                 "every usable CPU; 1 = serial; rows are "
                                 "identical either way)")

    def running(parser: argparse.ArgumentParser) -> None:
        jobs(parser)
        parser.add_argument("--no-cache", action="store_true",
                            help="neither read nor write the result cache "
                                 "(disables resume)")
        parser.add_argument("--export", metavar="DIR", default=None,
                            help="write CSV/JSON/manifest artifacts to DIR")
        parser.add_argument("--quiet", "-q", action="store_true",
                            help="suppress the tables, print the summary "
                                 "lines only")

    run_parser = actions.add_parser(
        "run", help="run a sweep (finished points resume from the cache)")
    common(run_parser)
    running(run_parser)
    run_parser.add_argument("--trace", metavar="PATH", default=None,
                            help="write a repro.obs trace of the sweep "
                                 "(inspect with 'python -m repro obs "
                                 "report PATH')")

    status_parser = actions.add_parser(
        "status", help="cache occupancy of a sweep (runs nothing)")
    common(status_parser)

    export_parser = actions.add_parser(
        "export", help="run (from cache where possible) and write artifacts")
    common(export_parser)
    jobs(export_parser)
    export_parser.add_argument("--out", required=True, metavar="DIR",
                               help="output directory of the artifacts")

    optimize_parser = actions.add_parser(
        "optimize", help="adaptive search of a registered grid (batches "
                         "resume from the cache)")
    common(optimize_parser, dest="optimizer", noun="optimizer")
    running(optimize_parser)


def _resolve_spec(arguments: argparse.Namespace) -> SweepSpec:
    if arguments.sweep_command == "optimize":
        spec = get_optimize(arguments.optimizer, quick=arguments.quick)
    else:
        spec = get_sweep(arguments.sweep, quick=arguments.quick)
    overrides = dict(arguments.param)
    return spec.with_overrides(overrides) if overrides else spec


def _print_front(result) -> None:
    objectives = dict(result.spec.objectives)
    if not objectives:
        return
    names = result.spec.axis_names()
    knee = result.knee()
    columns = ["point"] + names + list(objectives)
    from repro.analysis.tables import format_table
    senses = ", ".join(f"{metric} ({sense})"
                       for metric, sense in objectives.items())
    rows = [["-" if row.get(column) is None else row.get(column)
             for column in columns] for row in result.front()]
    print(format_table(columns, rows,
                       title=f"Pareto front over {senses}"))
    if knee is not None:
        axes = ", ".join(f"{name}={knee.get(name)}" for name in names)
        print(f"knee point: point {knee.get('point')} ({axes})")


def _command_run(arguments: argparse.Namespace) -> int:
    """``sweep run`` and ``sweep optimize``: run, print, export."""
    spec = _resolve_spec(arguments)
    tracer = None
    if getattr(arguments, "trace", None):
        from repro.obs import Tracer
        tracer = Tracer(name=f"sweep:{arguments.sweep}")
    run = run_optimize if arguments.sweep_command == "optimize" else run_sweep
    result = run(spec, jobs=arguments.jobs, cache=not arguments.no_cache,
                 cache_root=arguments.cache_dir, tracer=tracer)
    if not arguments.quiet:
        print(result.to_table())
        print()
        _print_front(result)
    searched = isinstance(result, OptimizeResult)
    rounds = f" in {len(result.rounds)} rounds" if searched else ""
    stop = f" stop={result.stop_reason}" if searched else ""
    print(f"{result.kind} {spec.name}: {len(result.points)} points{rounds} "
          f"({result.computed_points} computed, {result.cached_points} from "
          f"cache){stop} in {result.elapsed_s:.3f}s seed={spec.seed} "
          f"spec_hash={spec.spec_hash()}")
    if arguments.export:
        _log_paths(export_sweep(result, arguments.export))
    if tracer is not None:
        from repro.obs import write_trace
        trace_path = write_trace(tracer, arguments.trace)
        logger.info(f"wrote trace to {trace_path}")
    return 0


def _log_paths(paths) -> None:
    for kind, path in paths.items():
        logger.info(f"  wrote {kind:9s} {path}")


def _command_status(arguments: argparse.Namespace) -> int:
    spec = _resolve_spec(arguments)
    status = sweep_status(spec, cache_root=arguments.cache_dir)
    for point, done in zip(status.points, status.done):
        axes = ", ".join(f"{name}={value}"
                         for name, value in point.axis_values.items())
        state = "done   " if done else "pending"
        print(f"  point {point.index:3d}  {state}  {axes}  "
              f"key={point.cache_key[:12]}")
    print(f"sweep {spec.name}: {status.done_count}/{len(status.points)} "
          f"points cached, {status.pending_count} pending "
          f"spec_hash={spec.spec_hash()}")
    return 0


def _command_export(arguments: argparse.Namespace) -> int:
    spec = _resolve_spec(arguments)
    result = run_sweep(spec, jobs=arguments.jobs,
                       cache_root=arguments.cache_dir)
    paths = export_sweep(result, arguments.out)
    print(f"sweep {spec.name}: exported {len(result.points)} points "
          f"({result.cached_points} from cache) "
          f"spec_hash={spec.spec_hash()}")
    _log_paths(paths)
    return 0


def _command_list(arguments: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    rows = []
    for definition in iter_definitions():
        spec = definition.build(quick=False)
        quick = definition.build(quick=True)
        rows.append([definition.name, spec.experiment,
                     " x ".join(spec.axis_names()),
                     spec.num_points(), quick.num_points(),
                     definition.title])
    print(format_table(
        ["name", "experiment", "axes", "points", "quick", "title"],
        rows, title="Registered sweeps"))
    optimizer_rows = []
    for definition in iter_optimize_definitions():
        spec = definition.build(quick=False)
        quick = definition.build(quick=True)
        optimizer_rows.append([definition.name, spec.experiment,
                               " x ".join(spec.axis_names()),
                               spec.max_points, quick.max_points,
                               definition.reference_sweep,
                               definition.title])
    if optimizer_rows:
        print()
        print(format_table(
            ["name", "experiment", "dimensions", "budget", "quick",
             "reference", "title"],
            optimizer_rows, title="Registered optimizers"))
    if arguments.verbose:
        for definition in iter_definitions():
            spec = definition.build(quick=False)
            print(f"\n{definition.name}:")
            for name, values in spec.axis_values().items():
                print(f"  axis {name}: {values}")
            for key, value in spec.base_params.items():
                print(f"  base {key}={value!r}")
            for metric, sense in spec.objectives.items():
                print(f"  objective {metric}: {sense}")
    return 0


def command_sweep(arguments: argparse.Namespace) -> int:
    """Dispatch one parsed ``sweep`` invocation; returns the exit status."""
    handler = {"list": _command_list,
               "run": _command_run,
               "status": _command_status,
               "export": _command_export,
               "optimize": _command_run}[arguments.sweep_command]
    try:
        return handler(arguments)
    except KeyError as error:
        # An unknown sweep, optimizer or --param name (UnknownSweepError,
        # UnknownParameterError); keep the did-you-mean message, drop the
        # traceback.
        logger.error(f"error: {error.args[0]}")
        return 2
    except ValueError as error:
        logger.error(f"error: {error}")
        return 2
