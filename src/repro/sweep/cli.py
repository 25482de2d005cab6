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
``optimize`` runs a registered adaptive search
(:mod:`repro.sweep.optimize`) with the same resume/export discipline: a
warm re-run replays the identical proposal sequence from the cache and
recomputes nothing.

Output discipline matches :mod:`repro.runner.cli`: result tables and the
summary/``spec_hash`` lines stay on stdout; auxiliary status ("wrote ...")
and ``error:`` lines go through the ``repro`` logger to stderr.
"""

from __future__ import annotations

import argparse
import logging

# Shared --param reader — one table, one behaviour for both the runner and
# the sweep CLI (see repro.runner.params.parse_param).
from repro.runner.params import parse_param
from repro.runner.params import parse_param_arg as _parse_param
from repro.sweep.analysis import knee_point, pareto_front
from repro.sweep.artifacts import export_optimize, export_sweep
from repro.sweep.catalog import (UnknownOptimizeError, UnknownSweepError,
                                 get_optimize, get_sweep,
                                 iter_definitions,
                                 iter_optimize_definitions)
from repro.sweep.driver import run_sweep, sweep_status
from repro.sweep.optimize import run_optimize
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

    def common(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("sweep", help="registered sweep name "
                                          "(see 'sweep list')")
        parser.add_argument("--quick", action="store_true",
                            help="scaled-down CI variant of the sweep")
        parser.add_argument("--cache-dir", default=None,
                            help="result cache directory (default "
                                 "REPRO_CACHE_DIR or ~/.cache/repro-bougard)")
        parser.add_argument("--param", action="append", type=_parse_param,
                            default=[], metavar="KEY=VALUE",
                            help="override one base parameter of the sweep "
                                 "(repeatable; validated against the "
                                 "experiment schema; axes cannot be "
                                 "overridden)")

    run_parser = actions.add_parser(
        "run", help="run a sweep (finished points resume from the cache)")
    common(run_parser)
    run_parser.add_argument("--jobs", "-j", type=int, default=None,
                            help="cap on the worker processes the uncached "
                                 "points are shared between (default: "
                                 "every usable CPU; 1 = serial; rows are "
                                 "identical either way)")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="neither read nor write the result cache "
                                 "(disables resume)")
    run_parser.add_argument("--export", metavar="DIR", default=None,
                            help="write CSV/JSON/manifest artifacts to DIR")
    run_parser.add_argument("--quiet", "-q", action="store_true",
                            help="suppress the tables, print the summary "
                                 "lines only")
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
    export_parser.add_argument("--jobs", "-j", type=int, default=None,
                               help="cap on the worker processes for "
                                    "missing points (default: every "
                                    "usable CPU; 1 = serial)")
    export_parser.add_argument("--out", required=True, metavar="DIR",
                               help="output directory of the artifacts")

    optimize_parser = actions.add_parser(
        "optimize", help="adaptive design-space search (batches resume "
                         "from the cache)")
    optimize_parser.add_argument("optimizer",
                                 help="registered optimizer name "
                                      "(see 'sweep list')")
    optimize_parser.add_argument("--quick", action="store_true",
                                 help="scaled-down CI variant of the search")
    optimize_parser.add_argument("--cache-dir", default=None,
                                 help="result cache directory (default "
                                      "REPRO_CACHE_DIR or "
                                      "~/.cache/repro-bougard)")
    optimize_parser.add_argument("--param", action="append",
                                 type=_parse_param, default=[],
                                 metavar="KEY=VALUE",
                                 help="override one base parameter "
                                      "(repeatable; searched dimensions "
                                      "cannot be overridden)")
    optimize_parser.add_argument("--jobs", "-j", type=int, default=None,
                                 help="cap on the worker processes per "
                                      "proposal batch (default: every "
                                      "usable CPU; 1 = serial)")
    optimize_parser.add_argument("--no-cache", action="store_true",
                                 help="neither read nor write the result "
                                      "cache (disables resume)")
    optimize_parser.add_argument("--export", metavar="DIR", default=None,
                                 help="write CSV/JSON/manifest artifacts "
                                      "to DIR")
    optimize_parser.add_argument("--quiet", "-q", action="store_true",
                                 help="suppress the tables, print the "
                                      "summary lines only")


def _resolve_spec(arguments: argparse.Namespace) -> SweepSpec:
    spec = get_sweep(arguments.sweep, quick=arguments.quick)
    overrides = dict(getattr(arguments, "param", []) or [])
    if overrides:
        spec = spec.with_overrides(overrides)
    return spec


def _print_front(result, names=None) -> None:
    objectives = dict(result.spec.objectives)
    if not objectives:
        return
    names = names if names is not None else result.spec.axis_names()
    front = pareto_front(result.rows, objectives)
    knee = knee_point(front, objectives)
    columns = ["point"] + list(names) + list(objectives)
    from repro.analysis.tables import format_table
    senses = ", ".join(f"{metric} ({sense})"
                       for metric, sense in objectives.items())
    rows = [["-" if row.get(column) is None else row.get(column)
             for column in columns] for row in front]
    print(format_table(columns, rows,
                       title=f"Pareto front over {senses}"))
    if knee is not None:
        axes = ", ".join(f"{name}={knee.get(name)}" for name in names)
        print(f"knee point: point {knee.get('point')} ({axes})")


def _command_run(arguments: argparse.Namespace) -> int:
    spec = _resolve_spec(arguments)
    tracer = None
    if arguments.trace:
        from repro.obs import Tracer
        tracer = Tracer(name=f"sweep:{arguments.sweep}")
    result = run_sweep(spec, jobs=arguments.jobs,
                       cache=not arguments.no_cache,
                       cache_root=arguments.cache_dir,
                       tracer=tracer)
    if not arguments.quiet:
        print(result.to_table())
        print()
        _print_front(result)
    print(f"sweep {spec.name}: {len(result.points)} points "
          f"({result.computed_points} computed, {result.cached_points} from "
          f"cache) in {result.elapsed_s:.3f}s seed={spec.seed} "
          f"spec_hash={spec.spec_hash()}")
    if arguments.export:
        paths = export_sweep(result, arguments.export)
        for kind in ("csv", "long_csv", "json", "manifest"):
            logger.info(f"  wrote {kind:9s} {paths[kind]}")
    if tracer is not None:
        from repro.obs import write_trace
        trace_path = write_trace(tracer, arguments.trace)
        logger.info(f"wrote trace to {trace_path}")
    return 0


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
    for kind in ("csv", "long_csv", "json", "manifest"):
        logger.info(f"  wrote {kind:9s} {paths[kind]}")
    return 0


def _command_optimize(arguments: argparse.Namespace) -> int:
    spec = get_optimize(arguments.optimizer, quick=arguments.quick)
    overrides = dict(getattr(arguments, "param", []) or [])
    if overrides:
        spec = spec.with_overrides(overrides)
    result = run_optimize(spec, jobs=arguments.jobs,
                          cache=not arguments.no_cache,
                          cache_root=arguments.cache_dir)
    if not arguments.quiet:
        print(result.to_table())
        print()
        _print_front(result, names=spec.dimension_names())
    print(f"optimize {spec.name}: {len(result.points)} points in "
          f"{len(result.rounds)} rounds "
          f"({result.computed_points} computed, {result.cached_points} from "
          f"cache) stop={result.stop_reason} in {result.elapsed_s:.3f}s "
          f"seed={spec.seed} spec_hash={spec.spec_hash()}")
    if arguments.export:
        paths = export_optimize(result, arguments.export)
        for kind in ("csv", "json", "manifest"):
            logger.info(f"  wrote {kind:9s} {paths[kind]}")
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
                               " x ".join(spec.dimension_names()),
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
               "optimize": _command_optimize}[arguments.sweep_command]
    try:
        return handler(arguments)
    except (UnknownSweepError, UnknownOptimizeError) as error:
        logger.error(f"error: {error}")
        return 2
    except KeyError as error:
        # e.g. an unknown --param name (UnknownParameterError); keep the
        # schema's did-you-mean message, drop the traceback.
        logger.error(f"error: {error.args[0]}")
        return 2
    except ValueError as error:
        logger.error(f"error: {error}")
        return 2
