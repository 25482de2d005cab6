#!/usr/bin/env python
"""Design-space exploration over the full-scale packet-level simulator.

The paper's contribution is a *design-space analysis* — energy per delivered
packet traded against reliability and latency across node density, duty
cycle and transmit-power policy.  This walkthrough does that analysis end to
end through the stable library façade (``repro.api``):

1. run the registered node-density sweep through a configured ``Session``
   (every point is one engine run of ``case_study_full``, cached
   individually — re-running this script recomputes nothing);
2. extract the Pareto front over (mean power, failure probability, mean
   delay) and the knee point of the trade-off;
3. build a custom BO/SO duty-cycle sweep from scratch with explicit axes —
   validated against the experiment's typed schema the moment it is built;
4. export CSV/JSON artifacts plus the reproducibility manifest.

Equivalent CLI::

    python -m repro sweep run node_density --quick --export out/

Run with::

    python examples/design_space_exploration.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import repro.api as api
from repro.sweep import export_sweep, knee_point, pareto_front

#: The examples run the quick variants so the walkthrough finishes in
#: seconds; drop ``quick=True`` for the paper-scale design spaces.
QUICK = True


def main() -> None:
    session = api.Session()

    # ---- 1. a registered sweep, resumable point by point ---------------------
    status = session.sweep_status("node_density", quick=QUICK)
    spec = status.spec
    print(f"sweep {spec.name}: {spec.num_points()} points, "
          f"{status.done_count} already cached")
    result = session.sweep("node_density", quick=QUICK)
    print(result.to_table())
    print(f"({result.computed_points} computed, {result.cached_points} "
          f"served from cache — run the script again and watch this hit 0)")
    print()

    # ---- 2. the trade-off story: Pareto front and knee -----------------------
    front = pareto_front(result.rows, spec.objectives)
    knee = knee_point(front, spec.objectives)
    print(f"Pareto-optimal densities "
          f"({', '.join(f'{m} ({s})' for m, s in spec.objectives.items())}):")
    for row in front:
        marker = "  <- knee" if knee is not None and \
            row["point"] == knee["point"] else ""
        print(f"  {row['total_nodes']:5d} nodes: "
              f"{row['mean_power_uw']:7.1f} uW, "
              f"Pr_fail {row['failure_probability']:.3f}{marker}")
    print()

    # ---- 3. a custom design space is one SweepSpec away ----------------------
    # The spec validates against case_study_full's typed schema *here*: a
    # typo'd axis name or an out-of-range beacon order raises on this line,
    # before any simulation starts.
    duty = api.SweepSpec(
        name="custom_duty_cycle", experiment="case_study_full",
        axes={"beacon_order": api.GridAxis((3, 4, 5)),
              "superframe_order": api.GridAxis((None, 3))},
        base_params={"total_nodes": 32, "num_channels": 2, "superframes": 6},
        objectives={"mean_power_uw": "min", "failure_probability": "min"})
    duty_result = session.sweep(duty)
    print(duty_result.to_table(
        title="Custom BO/SO sweep (SO=None means SO=BO, no inactive portion)"))
    print()

    # ---- 4. byte-reproducible artifacts --------------------------------------
    out_dir = Path(tempfile.mkdtemp(prefix="repro-sweep-"))
    paths = export_sweep(result, out_dir)
    print(f"exported to {out_dir} (spec hash {spec.spec_hash()}):")
    for kind, path in sorted(paths.items()):
        print(f"  {kind:9s} {path.name}")


if __name__ == "__main__":
    main()
