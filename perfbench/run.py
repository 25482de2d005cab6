"""The repository's benchmark: one command, four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_cli --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that reports the per-layer metrics (and the
tracing overhead against untraced passes it interleaves).  Human-readable
notes go to stdout first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run works in a scratch directory inside the checkout, removed at the
end, with ``REPRO_CACHE_DIR`` pointed into it: nothing reads or writes the
user's cache.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (PINNED_ENV, Context, median,  # noqa: E402
                    python_setup_s, timed_run)

WORKLOADS = ("paper_cli", "dense_sim", "design_search", "service_jobs")
END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "1/s", "op_p50_s": "s",
                    "peak_rss_mb": "MB"}
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_REPEATS = 5
#: What a fresh interpreter does before an in-process workload is ready.
SESSION_SETUP = ("import sys, repro.api; "
                 "repro.api.Session(cache_dir=sys.argv[1])")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every workload for smoke tests")
    return parser.parse_args(argv)


def setup_seconds(ctx: Context, workload: str) -> float:
    """Median wall of fresh interpreters getting ready: ``import
    repro.api`` for the CLI workload, plus a ``Session`` for in-process
    ones (the service measures its own server starts)."""
    if workload == "paper_cli":
        return median(python_setup_s(ctx, "import repro.api", SETUP_REPEATS))
    return median([_session_setup(ctx) for _ in range(SETUP_REPEATS)])


def _session_setup(ctx: Context) -> float:
    cache = ctx.fresh_dir("setup-cache")
    wall, code, _ = timed_run([ctx.python, "-c", SESSION_SETUP, str(cache)],
                              ctx)
    if code != 0:
        raise RuntimeError("Session set-up interpreter failed")
    return wall


def run(args: argparse.Namespace, ctx: Context) -> dict:
    traced = bool(args.trace)
    # Write bytecode for every module once, untimed: imports then cost the
    # same in every run, even where PYTHONDONTWRITEBYTECODE is set.
    _, code, _ = timed_run([ctx.python, "-m", "compileall", "-q",
                            str(ctx.root / "src"), str(HERE)], ctx)
    if code != 0:
        raise RuntimeError("byte-compiling the sources failed")
    setup = None
    if args.workload == "paper_cli":
        import paper_cli
        outcome = (paper_cli.measure_traced(ctx) if traced
                   else paper_cli.measure(ctx))
    elif args.workload == "service_jobs":
        import service_jobs
        if traced:
            outcome = service_jobs.measure_traced(ctx)
        else:
            outcome, setup = service_jobs.measure(ctx)
    else:
        import inprocess
        measure = {("dense_sim", False): inprocess.measure_dense,
                   ("dense_sim", True): inprocess.measure_dense_traced,
                   ("design_search", False): inprocess.measure_design,
                   ("design_search", True): inprocess.measure_design_traced,
                   }[(args.workload, traced)]
        outcome = measure(ctx)
    if traced:
        from probes import unit_of
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in outcome.metrics.items()}
    else:
        if setup is None:
            setup = setup_seconds(ctx, args.workload)
        values = dict(outcome.metrics, setup_s=setup)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    import numpy
    print(f"machine: {os.cpu_count()} cpu(s), python "
          f"{platform.python_version()}, numpy {numpy.__version__}")
    for note in outcome.notes:
        print(note)
    return {"correct": outcome.failed == 0 and outcome.attempted > 0,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (src/repro is "
              "missing)", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(root / "src"))
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workspace = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    os.environ["REPRO_CACHE_DIR"] = str(workspace / "default-cache")
    ctx = Context(root=root, workspace=workspace, seed=args.seed,
                  seconds=args.seconds, size=args.size)
    try:
        result = run(args, ctx)
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
