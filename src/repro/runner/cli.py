"""Command-line interface of the experiment engine.

Usage (with ``src`` on ``PYTHONPATH`` or the package installed)::

    python -m repro list                      # catalogue of experiments
    python -m repro run fig6_csma --jobs 1    # run one experiment serially
    python -m repro run case_study --no-cache # force a recomputation
    python -m repro run fig6_csma --param num_windows=4
    python -m repro run fig6_csma --output csv --output-file rows.csv
    python -m repro run fig6_csma --trace trace.json  # telemetry artifact
    python -m repro obs report trace.json     # self-time/phase breakdown
    python -m repro sweep run node_density    # design-space exploration
    python -m repro bench --quick --check     # perf-trajectory smoke
    python -m repro serve --workers 2         # job queue + HTTP API
    python -m repro jobs submit case_study --wait  # client of 'serve'
    python -m repro cache                     # cache artifacts
    python -m repro cache stats               # size / per-experiment stats
    python -m repro cache --clear             # drop every artifact
    python -m repro cache prune --keep-current  # drop stale-code entries

``run`` prints the result rows as an ASCII table plus, when the experiment
produces one, the paper-vs-measured report; the exit status is 0 whenever
the run completed (tolerance misses are reported, not fatal).  The ``sweep``
command tree lives in :mod:`repro.sweep.cli`, ``bench`` in
:mod:`repro.bench.cli` and ``serve``/``jobs`` in :mod:`repro.service.cli`;
:func:`main` attaches those trees only to invocations that can reach them,
so ``list``, ``run``, ``cache`` and ``obs`` never import the layers above
the runner (nor, on a cache hit, numpy).

Output discipline: result rows, tables and summary lines (grep targets of
scripts and CI) go to stdout via ``print``; auxiliary status lines ("wrote
... to ...") and error messages go through the stdlib :mod:`logging` tree
rooted at the ``repro`` logger, which :func:`main` configures onto stderr —
``--log-level`` tunes it and ``-q``/``--quiet`` maps to ``WARNING``.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Any, Dict, Optional, Sequence

from repro.analysis.io import write_rows
from repro.analysis.tables import format_table
from repro.runner.cache import ResultCache, code_version
from repro.runner.engine import DEFAULT_SEED, run_experiment
# The --param reader (literal evaluation, the bare true/false/none/null
# normalisation table, first-=-splits) is shared with the sweep CLI; the
# local name keeps the historical import path working.
from repro.runner.params import parse_param
from repro.runner.params import parse_param_arg as _parse_param
from repro.runner.registry import UnknownExperimentError, default_registry

logger = logging.getLogger(__name__)

#: ``--log-level`` choices, lowercase, mapped via ``getattr(logging, ...)``.
LOG_LEVELS = ("debug", "info", "warning", "error")

#: Commands whose parsers and handlers live in this module.
RUNNER_COMMANDS = ("list", "run", "cache", "obs")


def configure_logging(arguments: argparse.Namespace) -> None:
    """(Re)configure the ``repro`` logger tree for one CLI invocation.

    Level precedence: an explicit ``--log-level``, else ``WARNING`` when
    the invoked subcommand carries ``-q``/``--quiet``, else ``INFO``.  The
    handler writes bare messages to *current* ``sys.stderr`` and replaces
    any handler from a previous :func:`main` call, so repeated in-process
    invocations (the test suite) never log onto a stale stream.
    """
    level_name = getattr(arguments, "log_level", None)
    if level_name:
        level = getattr(logging, level_name.upper())
    elif getattr(arguments, "quiet", False):
        level = logging.WARNING
    else:
        level = logging.INFO
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False


def _command_word(argv: Sequence[str]) -> Optional[str]:
    """The command ``argv`` names, or ``None`` when it names none or the
    top-level options leave it unclear (help, an abbreviated or unknown
    option)."""
    index = 0
    while index < len(argv):
        token = argv[index]
        if token == "--log-level":
            index += 2
        elif token.startswith("--log-level="):
            index += 1
        elif token.startswith("-"):
            return None
        else:
            return token
    return None


def build_parser(argv: Optional[Sequence[str]] = None
                 ) -> argparse.ArgumentParser:
    """The engine's argument parser (exposed for the CLI tests).

    Given the ``argv`` about to be parsed, the ``sweep``, ``bench``,
    ``serve`` and ``jobs`` trees are attached only when that invocation
    can reach them — it names one of them, asks for top-level help or
    names no runner command — because their modules import the façade and
    the sweep stack.  Without ``argv`` every tree is attached.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Experiment engine of the Bougard et al. (DATE 2005) "
                    "reproduction: run any paper figure or case study, "
                    "in parallel, with on-disk result caching.")
    parser.add_argument("--log-level", choices=LOG_LEVELS, default=None,
                        help="stderr log verbosity (default info; "
                             "-q/--quiet on a subcommand implies warning)")
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="catalogue of registered experiments")
    list_parser.add_argument("--verbose", action="store_true",
                             help="include parameters and output columns")

    run_parser = commands.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="registry name (see 'list')")
    run_parser.add_argument("--jobs", "-j", type=int, default=None,
                            help="cap on the worker processes a task "
                                 "fan-out shares its tasks between "
                                 "(default: every CPU this process may "
                                 "use; 1 = serial; a large batched kernel "
                                 "call splits its lanes either way; rows "
                                 "are identical either way)")
    run_parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                            help=f"master seed (default {DEFAULT_SEED})")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="neither read nor write the result cache")
    run_parser.add_argument("--cache-dir", default=None,
                            help="cache directory (default REPRO_CACHE_DIR "
                                 "or ~/.cache/repro-bougard)")
    run_parser.add_argument("--param", action="append", type=_parse_param,
                            default=[], metavar="KEY=VALUE",
                            help="override one experiment parameter "
                                 "(repeatable; values are Python literals)")
    run_parser.add_argument("--quiet", "-q", action="store_true",
                            help="suppress the row table, print the summary "
                                 "line only")
    run_parser.add_argument("--output", choices=["csv", "json"], default=None,
                            help="emit the result rows as CSV or JSON "
                                 "(to stdout, or to --output-file)")
    run_parser.add_argument("--output-file", default=None, metavar="PATH",
                            help="write the rows to PATH instead of stdout "
                                 "(format from --output, else the file "
                                 "extension)")
    run_parser.add_argument("--trace", default=None, metavar="PATH",
                            help="write a repro.obs trace artifact of the "
                                 "run to PATH (never perturbs results)")

    cache_parser = commands.add_parser(
        "cache", help="inspect, clear or prune the result cache")
    cache_parser.add_argument("action", nargs="?",
                              choices=["show", "prune", "stats"],
                              default="show",
                              help="'show' lists artifacts (default); "
                                   "'stats' summarises size and "
                                   "per-experiment occupancy (read-only); "
                                   "'prune' deletes entries by criterion")
    cache_parser.add_argument("--cache-dir", default=None,
                              help="cache directory to inspect")
    cache_parser.add_argument("--backend", choices=["directory", "shared"],
                              default="directory",
                              help="cache backend to inspect through; "
                                   "'shared' reports its lock/contention "
                                   "counters in 'stats'")
    cache_parser.add_argument("--clear", action="store_true",
                              help="remove every stored artifact")
    cache_parser.add_argument("--keep-current", action="store_true",
                              help="with 'prune': delete entries whose "
                                   "embedded code-version token differs "
                                   "from the current sources")

    obs_parser = commands.add_parser(
        "obs", help="inspect repro.obs trace artifacts")
    obs_commands = obs_parser.add_subparsers(dest="obs_command",
                                             required=True)
    report_parser = obs_commands.add_parser(
        "report", help="self-time / phase-breakdown summary of a trace")
    report_parser.add_argument("trace", help="trace artifact path "
                                             "(written by run --trace)")
    report_parser.add_argument("--no-timing", action="store_true",
                               help="omit durations and meters — the "
                                    "remaining table is deterministic for "
                                    "a fixed workload and seed")
    validate_parser = obs_commands.add_parser(
        "validate", help="check a trace against the artifact schema")
    validate_parser.add_argument("trace", help="trace artifact path")

    if argv is not None and _command_word(argv) in RUNNER_COMMANDS:
        return parser
    # Imported here, not at module scope: the sweep, bench and service
    # packages sit *above* the runner in the layering, so the runner must
    # not depend on them at import time.
    from repro.sweep.cli import add_sweep_parser
    add_sweep_parser(commands)
    from repro.bench.cli import add_bench_parser
    add_bench_parser(commands)
    from repro.service.cli import add_service_parsers
    add_service_parsers(commands)
    return parser


def _command_list(arguments: argparse.Namespace) -> int:
    registry = default_registry()
    headers = ["name", "figure", "parallel", "title"]
    rows = [[spec.name, spec.figure,
             "yes" if spec.supports_jobs else "-", spec.title]
            for spec in registry]
    print(format_table(headers, rows, title="Registered experiments"))
    if arguments.verbose:
        for spec in registry:
            print(f"\n{spec.name}:")
            print(f"  outputs: {', '.join(spec.output_names) or '-'}")
            if spec.schema:
                for param in spec.schema:
                    line = (f"  --param {param.name}={param.default!r}  "
                            f"[{param.domain()}]")
                    if param.doc:
                        line += f"  {param.doc}"
                    print(line)
            else:
                print("  (no tunable parameters)")
    return 0


def _command_run(arguments: argparse.Namespace) -> int:
    overrides = dict(arguments.param)
    tracer = None
    if arguments.trace:
        from repro.obs import Tracer
        tracer = Tracer(name=f"run:{arguments.experiment}")
    try:
        run = run_experiment(arguments.experiment,
                             params=overrides,
                             jobs=arguments.jobs,
                             seed=arguments.seed,
                             cache=not arguments.no_cache,
                             cache_root=arguments.cache_dir,
                             tracer=tracer)
    except UnknownExperimentError as error:
        logger.error(f"error: {error}")
        return 2
    except KeyError as error:
        logger.error(f"error: {error.args[0]}")
        return 2
    except ValueError as error:
        # Invalid parameter values (e.g. num_windows=0) surface as the
        # model's own message rather than a traceback.
        logger.error(f"error: {error}")
        return 2
    if tracer is not None:
        from repro.obs import write_trace
        trace_path = write_trace(tracer, arguments.trace)
        logger.info(f"wrote trace to {trace_path}")

    emit_stdout_rows = arguments.output and not arguments.output_file
    if not arguments.quiet and not emit_stdout_rows:
        print(run.to_table())
        if run.report:
            print()
            _print_report(run.report)
    summary = (f"{run.spec.name}: {len(run.rows)} rows in "
               f"{run.elapsed_s:.3f}s "
               f"[{'cache' if run.cache_hit else f'computed with {run.jobs} job(s)'}] "
               f"seed={run.seed} key={run.cache_key[:12]}")
    if emit_stdout_rows:
        # Rows own stdout (pipeable CSV/JSON); the summary moves to stderr.
        text = (run.to_json() if arguments.output == "json"
                else run.to_csv())
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
        return 0
    if arguments.output_file:
        path = write_rows(run.rows, arguments.output_file,
                          fmt=arguments.output, columns=run.csv_columns())
        logger.info(f"wrote {len(run.rows)} rows to {path}")
    print(summary)
    return 0


def _print_report(report: Dict[str, Any]) -> None:
    headers = ["quantity", "paper", "measured", "rel. error", "ok"]
    rows = []
    for row in report["rows"]:
        error = row["relative_error"]
        rows.append([
            row["quantity"],
            "-" if row["paper_value"] is None else row["paper_value"],
            row["measured_value"],
            "-" if error is None else f"{100 * error:+.1f}%",
            {True: "yes", False: "NO", None: "-"}[row["within_tolerance"]],
        ])
    print(format_table(headers, rows,
                       title=f"{report['experiment_id']}: {report['title']}"))
    for note in report.get("notes", []):
        print(f"  note: {note}")


def _command_cache(arguments: argparse.Namespace) -> int:
    from repro.runner.backends import resolve_backend
    backend = resolve_backend(arguments.backend, arguments.cache_dir)
    cache = ResultCache(backend=backend)
    if arguments.action == "stats":
        stats = cache.stats()
        print(f"cache root: {stats['root']}")
        print(f"backend:    {backend.kind}")
        print(f"entries:    {stats['entries']}")
        print(f"total size: {stats['total_bytes']} bytes")
        for name, bucket in stats["by_experiment"].items():
            print(f"  {name}: {bucket['entries']} entries, "
                  f"{bucket['bytes']} bytes")
        counters = cache.counters.as_dict()
        session = ", ".join(f"{key}={counters[key]}"
                            for key in sorted(counters)) or "none"
        print(f"session counters: {session}")
        backend_counters = backend.describe()["counters"]
        if backend_counters or arguments.backend == "shared":
            locks = ", ".join(f"{key}={backend_counters[key]}"
                              for key in sorted(backend_counters)) or "none"
            print(f"backend counters: {locks}")
        return 0
    if arguments.action == "prune":
        if not arguments.keep_current:
            logger.error("error: 'cache prune' needs a criterion; use "
                         "--keep-current to drop entries from older code "
                         "versions")
            return 2
        removed = cache.prune_stale()
        print(f"pruned {removed} stale artifact(s) from {cache.root} "
              f"(kept code version {code_version()})")
        return 0
    if arguments.clear:
        removed = cache.clear()
        print(f"removed {removed} artifact(s) from {cache.root}")
        return 0
    keys = list(cache.keys())
    print(f"cache root: {cache.root}")
    print(f"artifacts:  {len(keys)}")
    print(f"code version: {code_version()}")
    for key in keys:
        print(f"  {key}")
    return 0


def _command_obs(arguments: argparse.Namespace) -> int:
    from repro.obs import read_trace, render_report, validate_trace
    try:
        payload = read_trace(arguments.trace)
    except (OSError, json.JSONDecodeError) as error:
        logger.error(f"error: cannot read trace {arguments.trace}: {error}")
        return 2
    try:
        validate_trace(payload)
    except ValueError as error:
        logger.error(f"error: invalid trace {arguments.trace}: {error}")
        return 2
    if arguments.obs_command == "validate":
        print(f"{arguments.trace}: valid {payload['kind']} "
              f"(schema v{payload['schema_version']}, "
              f"{len(payload['spans'])} spans)")
        return 0
    print(render_report(payload, include_timing=not arguments.no_timing),
          end="")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro``; returns the exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    arguments = build_parser(argv).parse_args(argv)
    configure_logging(arguments)
    if arguments.command == "sweep":
        from repro.sweep.cli import command_sweep
        handler = command_sweep
    elif arguments.command == "bench":
        from repro.bench.cli import command_bench
        handler = command_bench
    elif arguments.command == "serve":
        from repro.service.cli import command_serve
        handler = command_serve
    elif arguments.command == "jobs":
        from repro.service.cli import command_jobs
        handler = command_jobs
    else:
        handler = {"list": _command_list,
                   "run": _command_run,
                   "cache": _command_cache,
                   "obs": _command_obs}[arguments.command]
    try:
        return handler(arguments)
    except BrokenPipeError:
        # Piping into `head` closes stdout early; exit quietly like any
        # well-behaved unix tool (129 = 128 + SIGPIPE convention).
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 129
