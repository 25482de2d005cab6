#!/usr/bin/env python
"""Full-scale packet-level simulation of the Section 5 case study.

Where ``dense_network_case_study.py`` evaluates the 1600-node network
through the paper's analytical model, this example *simulates* it packet by
packet: all sixteen 2450 MHz channels with 100 nodes each, channel-inversion
link adaptation, 50 superframes per channel — tractable in a fraction of a
second because one batched lockstep kernel call (``repro.mac.vectorized``)
advances every channel at once, each on its own spawned seed.

The run goes through the experiment engine (equivalent CLI::

    python -m repro run case_study_full --jobs 4

), so a re-run is served from the result cache.  A scaled-down variant shows
how a :class:`repro.network.ScenarioSpec` makes diverse workloads one
configuration away.

Run with::

    python examples/full_scale_simulation.py
"""

from __future__ import annotations

import os

from repro.analysis.tables import format_table
from repro.network import ScenarioSpec, aggregate_channel_rows, simulate_network
from repro.runner import run_experiment


def main() -> None:
    jobs = min(4, os.cpu_count() or 1)

    # ---- the paper's network, simulated end to end through the engine --------
    run = run_experiment("case_study_full", jobs=jobs)
    aggregate = run.payload["aggregate"]
    print(format_table(
        ["channel", "delivered / attempted", "failures", "power [uW]",
         "delay [s]"],
        [[row["channel"],
          f"{row['packets_delivered']} / {row['packets_attempted']}",
          row["channel_access_failures"], row["mean_power_uw"],
          "-" if row["mean_delivery_delay_s"] is None
          else row["mean_delivery_delay_s"]]
         for row in run.rows],
        title="Per-channel packet-level simulation "
              f"({'cache hit' if run.cache_hit else f'{jobs} jobs'} "
              f"in {run.elapsed_s:.2f} s)",
    ))
    print()
    print(f"Network of {aggregate['nodes']} nodes on "
          f"{aggregate['channels']} channels:")
    print(f"  failure probability: {aggregate['failure_probability']:.3f} "
          f"(paper's analytical figure: 0.16)")
    print(f"  average node power:  {aggregate['mean_power_uw']:.1f} uW "
          f"(paper: 211 uW)")
    if aggregate["mean_delivery_delay_s"] is not None:
        print(f"  in-superframe delay: "
              f"{aggregate['mean_delivery_delay_s'] * 1e3:.0f} ms")
    print()

    # ---- a different workload is one ScenarioSpec away -----------------------
    spec = ScenarioSpec(name="ble-ablation", total_nodes=400, num_channels=4,
                        battery_life_extension=True, superframes_hint=20)
    rows = simulate_network(spec, seed=7)
    ble = aggregate_channel_rows(rows)
    print(f"Ablation — battery-life extension on, {ble['nodes']} nodes over "
          f"{ble['channels']} channels:")
    print(f"  failure probability: {ble['failure_probability']:.3f} "
          f"(the paper argues BLE hurts dense networks)")
    print(f"  average node power:  {ble['mean_power_uw']:.1f} uW")


if __name__ == "__main__":
    main()
