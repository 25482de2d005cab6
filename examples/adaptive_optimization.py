#!/usr/bin/env python
"""Adaptive design-space optimization over the full-scale simulator.

Grid sweeps (``examples/design_space_exploration.py``) spend most of
their budget far from the Pareto front.  The optimizer layer
(``repro.sweep.optimize``) runs the same search *adaptively*: a seeded
successive-halving loop proposes batches of design points over the
experiment's typed parameter domains, dispatches them through the same
executor + result cache as a plain sweep, and stops once the Pareto
front stabilises.  Everything is seeded — re-running a search replays
the identical proposal sequence from the cache and recomputes nothing.

This walkthrough:

1. runs the registered ``case_study_power`` optimizer (quick variant)
   through a ``Session`` and prints the per-round trajectory;
2. compares its knee point against the exhaustive reference grid
   (``case_study_power_grid``) — same operating point, half the budget;
3. builds a custom ``OptimizeSpec`` from scratch over typed dimensions;
4. exports the byte-reproducible CSV/JSON/manifest artifacts.

Equivalent CLI::

    python -m repro sweep optimize case_study_power --quick --export out/

Run with::

    python examples/adaptive_optimization.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import repro.api as api
from repro.sweep import export_optimize, knee_point, pareto_front

#: The examples run the quick variants so the walkthrough finishes in
#: seconds; drop ``quick=True`` for the paper-scale design spaces.
QUICK = True


def main() -> None:
    session = api.Session()

    # ---- 1. a registered optimizer, resumable round by round ----------------
    result = session.optimize("case_study_power", quick=QUICK)
    spec = result.spec
    print(result.to_table())
    print(f"optimize {spec.name}: {len(result.points)} points in "
          f"{len(result.rounds)} rounds stop={result.stop_reason} "
          f"({result.computed_points} computed, {result.cached_points} from "
          f"cache — run the script again and watch computed hit 0)")
    for rnd in result.rounds:
        print(f"  round {rnd.index}: {len(rnd.proposals)} proposals, "
              f"front size {len(rnd.front_points)}")
    print()

    # ---- 2. the knee, versus the exhaustive grid at twice the budget --------
    knee = result.knee()
    grid = session.sweep("case_study_power_grid", quick=QUICK)
    grid_knee = knee_point(pareto_front(grid.rows, grid.spec.objectives),
                           grid.spec.objectives)
    print(f"optimizer knee ({len(result.points)} points): "
          f"BO={knee['beacon_order']} SO={knee['superframe_order']} "
          f"-> {knee['mean_power_uw']:.1f} uW")
    print(f"grid knee      ({len(grid.points)} points): "
          f"BO={grid_knee['beacon_order']} SO={grid_knee['superframe_order']} "
          f"-> {grid_knee['mean_power_uw']:.1f} uW")
    print()

    # ---- 3. a custom search space is one OptimizeSpec away ------------------
    # Dimensions validate against case_study_full's typed schema *here*: a
    # typo'd name or an out-of-domain bound raises on this line, before any
    # simulation starts.
    custom = api.OptimizeSpec(
        name="custom_power_search", experiment="case_study_full",
        dimensions={"beacon_order": api.IntDimension(3, 6),
                    "superframe_order": api.ChoiceDimension((None, 2, 3))},
        objectives={"mean_power_uw": "min", "mean_delivery_delay_s": "min"},
        base_params={"total_nodes": 32, "num_channels": 2, "superframes": 4},
        max_points=6, initial_points=4, batch_size=2)
    custom_result = session.optimize(custom)
    print(custom_result.to_table(
        title="Custom BO/SO search (SO=None means SO=BO, fully active)"))
    print()

    # ---- 4. byte-reproducible artifacts -------------------------------------
    out_dir = Path(tempfile.mkdtemp(prefix="repro-optimize-"))
    paths = export_optimize(result, out_dir)
    print(f"exported to {out_dir} (spec hash {spec.spec_hash()}):")
    for kind, path in sorted(paths.items()):
        print(f"  {kind:9s} {path.name}")


if __name__ == "__main__":
    main()
