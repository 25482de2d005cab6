"""Workload ``paper_cli``: the full reproduction a reader runs.

Every registered experiment runs as its own ``python -m repro run <name>
--output json`` on an empty cache (the cold pass), then twice more on the
warm cache.  Interpreter start, imports and CLI parsing are paid on every
invocation, so this is the workload where import-time work shows; the cold
pass is dominated by the contention Monte-Carlo, not the MAC kernel.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from common import (Context, Outcome, children_peak_rss_mb, interleave,
                    median, more_passes, overhead_ratio, pass_seed,
                    timed_run)
from probes import Ledger, spans_from_payload

#: Warm re-runs of every experiment after the cold pass.
WARM_REPEATS = 2
#: A pass takes over ten seconds, so two fill a run.
MIN_PASSES = 2

#: ``--size tiny``: two quick experiments, one of them simulated.
TINY_ARGS = {
    "fig3_radio": [],
    "case_study_full": ["--param", "total_nodes=32", "--param",
                        "num_channels=2", "--param", "superframes=3",
                        "--param", "nodes_per_channel_cap=8"],
}

Invoke = Callable[..., Tuple[float, int, str]]


def experiment_args(ctx: Context) -> Dict[str, List[str]]:
    """Experiment name -> extra CLI arguments, for the run's size."""
    if ctx.size == "tiny":
        return dict(TINY_ARGS)
    from repro.api import Session
    return {spec.name: [] for spec in Session(cache=False).experiments()}


def invoke(ctx: Context, name: str, extra: List[str], seed: int,
           cache: Path, trace: Optional[Path] = None
           ) -> Tuple[float, int, str]:
    """One ``repro run`` invocation: ``(wall_s, exit_code, stdout)``.

    A traced invocation goes through ``traced_cli.py``, which installs the
    benchmark's wrappers before handing the same argv to the repro CLI.
    """
    tail = ["run", name, "--output", "json", "--seed", str(seed),
            "--cache-dir", str(cache)] + extra
    if trace is None:
        head = [ctx.python, "-m", "repro"]
    else:
        head = [ctx.python, str(Path(__file__).with_name("traced_cli.py"))]
        tail += ["--trace", str(trace)]
    return timed_run(head + tail, ctx)


def rows_ok(text: str) -> bool:
    """Rows parse, and every row carrying a paper value is within
    tolerance."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError:
        return False
    if not isinstance(rows, list) or not rows:
        return False
    return all(row.get("within_tolerance") is True for row in rows
               if isinstance(row, dict) and row.get("paper_value") is not None)


def run_pass(ctx: Context, experiments: Dict[str, List[str]], seed: int,
             outcome: Outcome, *, traced: bool = False,
             reference: Optional[Dict[str, str]] = None,
             call: Invoke = invoke) -> Dict[str, object]:
    """One cold pass plus the warm re-runs at ``seed``, on a fresh cache.

    Returns the cold wall, the warm walls, the cold outputs and (traced)
    each invocation's wall with its trace path.  Every invocation counts
    as one operation: it fails on a non-zero exit, a failed row check, a
    warm output that differs from the cold one, or a cold output that
    differs from ``reference`` (the other side of a traced/untraced pair).
    """
    cache = ctx.fresh_dir("cli-cache")
    traces = ctx.fresh_dir("cli-trace") if traced else None
    invocations: List[Tuple[float, Path]] = []
    cold: Dict[str, str] = {}
    start = time.perf_counter()
    for name, extra in experiments.items():
        trace = traces / f"{name}-cold.json" if traces else None
        wall, code, text = call(ctx, name, extra, seed, cache, trace)
        cold[name] = text
        ok = code == 0 and rows_ok(text) and (
            reference is None or text == reference.get(name))
        outcome.op(ok, f"cold run {name} (exit {code})")
        if trace is not None:
            invocations.append((wall, trace))
    cold_wall = time.perf_counter() - start
    warm_walls = []
    for repeat in range(WARM_REPEATS):
        for name, extra in experiments.items():
            trace = traces / f"{name}-warm{repeat}.json" if traces else None
            wall, code, text = call(ctx, name, extra, seed, cache, trace)
            warm_walls.append(wall)
            outcome.op(code == 0 and text == cold[name],
                       f"warm run {name} differs from cold (exit {code})")
            if trace is not None:
                invocations.append((wall, trace))
    return {"cold_wall": cold_wall, "warm_walls": warm_walls,
            "wall": time.perf_counter() - start, "outputs": cold,
            "invocations": invocations}


def measure(ctx: Context) -> Outcome:
    """Untraced run: cold/warm passes, each at its own seed, for about
    the window."""
    experiments = experiment_args(ctx)
    outcome = Outcome()
    deadline = time.perf_counter() + ctx.seconds
    walls, rates, warm_walls = [], [], []
    while more_passes(walls, deadline, minimum=MIN_PASSES):
        result = run_pass(ctx, experiments, pass_seed(ctx, len(rates)),
                          outcome)
        walls.append(result["wall"])
        rates.append(len(experiments) / result["cold_wall"])
        warm_walls.extend(result["warm_walls"])
    outcome.metrics = {"work_per_s": median(rates),
                       "op_p50_s": median(warm_walls),
                       "peak_rss_mb": children_peak_rss_mb()}
    outcome.notes.append(f"{len(rates)} pass(es) of {len(experiments)} "
                         f"experiments, {len(warm_walls)} warm runs")
    return outcome


def measure_traced(ctx: Context) -> Outcome:
    """Per-layer run: untraced and traced passes alternate."""
    experiments = experiment_args(ctx)
    outcome = Outcome()
    ledger = Ledger()
    overheads: List[float] = []
    references: Dict[int, Dict[str, str]] = {}

    def plain(pair: int) -> float:
        result = run_pass(ctx, experiments, pass_seed(ctx, pair), outcome,
                          reference=references.get(pair))
        references.setdefault(pair, result["outputs"])
        return result["wall"]

    def traced(pair: int) -> float:
        # Traced output must equal the untraced one (zero perturbation).
        result = run_pass(ctx, experiments, pass_seed(ctx, pair), outcome,
                          traced=True, reference=references.get(pair))
        references.setdefault(pair, result["outputs"])
        for wall, path in result["invocations"]:
            payload = json.loads(path.read_text(encoding="utf-8"))
            run_s = ledger.add_tree(spans_from_payload(payload),
                                    payload.get("counters"))
            ledger.self_s["cli"] += wall - run_s
            overheads.append(wall - run_s)
        return result["wall"]

    plain_walls, traced_walls = interleave(plain, traced, ctx.seconds)
    outcome.metrics = ledger.metrics(
        sum(traced_walls), cli_overhead_s=median(overheads),
        overhead_ratio=overhead_ratio(plain_walls, traced_walls))
    return outcome
