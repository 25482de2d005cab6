"""Workloads ``dense_sim`` and ``design_search``: the library through
``repro.api.Session``, inside the benchmark process.

``dense_sim`` is the paper's 1600-node network simulated at full scale
with 8 replications (128 lanes in one batched kernel call), once with
saturated and once with Poisson traffic.  The cache is off, so every call
computes; saturated traffic loads the contention merge, Poisson shifts work
into the beacon grid.

``design_search`` is the adaptive BO/SO search followed by its exhaustive
reference grid on one fresh cache: 16-lane kernel calls through the sweep
driver and executor, with cache writes beside cache reads.  The grid serves
the optimizer's points from the cache and computes the rest, so the pair
always covers the whole grid whatever points the optimizer picks.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, Optional, Tuple

from common import (Context, Outcome, derive_seed, interleave, median,
                    more_passes, overhead_ratio, pass_seed,
                    self_peak_rss_mb)
from probes import Ledger, Probe, install_engine_probes, spans_from_export

TRAFFIC_MODELS = ("saturated", "poisson")

#: ``case_study_full`` parameters of one ``dense_sim`` simulation.
DENSE_PARAMS = {
    "full": {"replications": 8},
    "tiny": {"total_nodes": 32, "num_channels": 2, "superframes": 3,
             "nodes_per_channel_cap": 8, "replications": 2},
}


def _session(seed: int, cache_dir=None, trace=None):
    from repro.api import Session
    if cache_dir is None:
        return Session(cache=False, seed=seed, trace=trace)
    return Session(cache_dir=cache_dir, seed=seed, trace=trace)


# -- dense_sim -------------------------------------------------------------------

def dense_pass(ctx: Context, session, seed: int, outcome: Outcome,
               reference: Optional[Dict[str, Any]] = None
               ) -> Tuple[float, int, Dict[str, Any]]:
    """Both traffic models, seeded from ``seed``: ``(wall,
    node_superframes, rows)``.

    Each simulation is one operation; it fails when a row delivers more
    than it attempted, when a saturated report row with a paper value is
    out of band, or when its rows differ from ``reference`` (the other
    side of a traced/untraced pair).
    """
    wall, work, rows_by_model = 0.0, 0, {}
    for model in TRAFFIC_MODELS:
        start = time.perf_counter()
        # Each model gets its own seed, so a pass averages two node
        # placements: placement moves a run's cost by several percent.
        result = session.run("case_study_full",
                             seed=derive_seed(seed, model),
                             traffic_model=model, **DENSE_PARAMS[ctx.size])
        wall += time.perf_counter() - start
        rows = result.rows
        rows_by_model[model] = rows
        work += sum(row["nodes"] * row["superframes"] for row in rows)
        ok = bool(rows) and all(row["packets_delivered"]
                                <= row["packets_attempted"] for row in rows)
        if model == "saturated" and ctx.size == "full":
            ok = ok and all(row["within_tolerance"]
                            for row in result.report["rows"]
                            if row["paper_value"] is not None)
        if reference is not None:
            ok = ok and rows == reference[model]
        outcome.op(ok, f"dense_sim {model}")
    return wall, work, rows_by_model


def measure_dense(ctx: Context) -> Outcome:
    outcome = Outcome()
    session = _session(ctx.seed)
    deadline = time.perf_counter() + ctx.seconds
    walls, rates = [], []
    while more_passes(walls, deadline):
        wall, work, _ = dense_pass(ctx, session, pass_seed(ctx, len(walls)),
                                   outcome)
        walls.append(wall)
        rates.append(work / wall)
    outcome.metrics = {"work_per_s": median(rates),
                       "op_p50_s": median(walls),
                       "peak_rss_mb": self_peak_rss_mb()}
    outcome.notes.append(f"{len(walls)} pass(es) of "
                         f"{len(TRAFFIC_MODELS)} simulations")
    return outcome


def measure_dense_traced(ctx: Context) -> Outcome:
    outcome = Outcome()
    plain_session = _session(ctx.seed)
    traced_session = _session(ctx.seed,
                              trace=ctx.workspace / "dense-trace.json")
    references: Dict[int, Dict[str, Any]] = {}

    def run_side(session, pair: int) -> float:
        # Both sides of a pair share a seed, so their summaries must match.
        wall, _, rows = dense_pass(ctx, session, pass_seed(ctx, pair),
                                   outcome, references.get(pair))
        references.setdefault(pair, rows)
        return wall

    plain_walls, traced_walls = interleave(
        lambda pair: run_side(plain_session, pair),
        lambda pair: _probed(lambda: run_side(traced_session, pair)),
        ctx.seconds)
    ledger = Ledger()
    export = traced_session.tracer.export()
    ledger.add_tree(spans_from_export(export), export["counters"])
    outcome.metrics = ledger.metrics(
        sum(traced_walls),
        overhead_ratio=overhead_ratio(plain_walls, traced_walls))
    return outcome


def _probed(work: Callable[[], Any]) -> Any:
    """``work()`` run with the engine wrappers installed."""
    probe = Probe()
    install_engine_probes(probe)
    try:
        return work()
    finally:
        probe.restore()


# -- design_search ---------------------------------------------------------------

def _specs(ctx: Context, session, seed: int):
    """The optimizer and its reference grid, both at ``seed``."""
    from repro.sweep.catalog import get_optimize
    quick = ctx.size == "tiny"
    optimize = dataclasses.replace(get_optimize("case_study_power",
                                                quick=quick), seed=seed)
    grid = dataclasses.replace(session.sweep_spec("case_study_power_grid",
                                                  quick=quick), seed=seed)
    return optimize, grid


def _point_key(row: Dict[str, Any]) -> tuple:
    return (row["beacon_order"], row["superframe_order"])


def design_pass(ctx: Context, seed: int, outcome: Outcome, trace=None
                ) -> Tuple[float, int, Any]:
    """Optimizer then grid at ``seed`` on a fresh cache: ``(wall, points,
    session)``.

    Two operations.  The grid fails its check unless every optimizer point
    reappears in it with identical metrics and it computed exactly the
    points the optimizer had not.
    """
    session = _session(seed, cache_dir=ctx.fresh_dir("design-cache"),
                       trace=trace)
    optimize, grid = _specs(ctx, session, seed)
    start = time.perf_counter()
    searched = session.optimize(optimize)
    swept = session.sweep(grid)
    wall = time.perf_counter() - start
    outcome.op(bool(searched.rows), "design_search optimize")
    grid_rows = {_point_key(row): {k: v for k, v in row.items()
                                   if k != "point"}
                 for row in swept.rows}
    found = {_point_key(row): {k: v for k, v in row.items() if k != "point"}
             for row in searched.rows}
    ok = (all(grid_rows.get(key) == metrics
              for key, metrics in found.items())
          and swept.cached_points == len(found)
          and swept.computed_points == len(grid_rows) - len(found))
    outcome.op(ok, "design_search grid does not reproduce the optimizer")
    return wall, len(searched.rows) + len(swept.rows), session


def measure_design(ctx: Context) -> Outcome:
    outcome = Outcome()
    deadline = time.perf_counter() + ctx.seconds
    walls, rates = [], []
    while more_passes(walls, deadline):
        wall, points, _ = design_pass(ctx, pass_seed(ctx, len(walls)),
                                      outcome)
        walls.append(wall)
        rates.append(points / wall)
    outcome.metrics = {"work_per_s": median(rates),
                       "op_p50_s": median(walls),
                       "peak_rss_mb": self_peak_rss_mb()}
    outcome.notes.append(f"{len(walls)} optimize+grid pass(es)")
    return outcome


def measure_design_traced(ctx: Context) -> Outcome:
    outcome = Outcome()
    ledger = Ledger()
    sessions = []

    def traced(pair: int) -> float:
        trace = ctx.fresh_dir("design-trace") / "trace.json"
        wall, _, session = _probed(lambda: design_pass(
            ctx, pass_seed(ctx, pair), outcome, trace=trace))
        sessions.append(session)
        return wall

    plain_walls, traced_walls = interleave(
        lambda pair: design_pass(ctx, pass_seed(ctx, pair), outcome)[0],
        traced, ctx.seconds)
    for session in sessions:
        export = session.tracer.export()
        ledger.add_tree(spans_from_export(export), export["counters"])
    outcome.metrics = ledger.metrics(
        sum(traced_walls),
        overhead_ratio=overhead_ratio(plain_walls, traced_walls))
    return outcome
