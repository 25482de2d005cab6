#!/usr/bin/env python
"""Heterogeneous traffic workloads on the dense-network simulator.

The paper's case study assumes every node has a packet buffered at every
beacon (1 byte sensed / 8 ms, shipped as 120-byte packets).  This example
runs the same scaled-down network under every registered traffic model —
saturated (the paper's assumption), byte-accurate periodic sensing, seeded
Poisson arrivals, rare bursty alarms, and a 75/25 periodic/alarm mixed
population — and tabulates how the energy / reliability / latency
trade-off shifts once nodes can sleep through superframes without data.

Equivalent CLI::

    python -m repro run case_study_full --param traffic_model=poisson

Run with::

    python examples/traffic_models.py
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.network import ScenarioSpec, aggregate_channel_rows, simulate_network
from repro.network.traffic import TRAFFIC_MODEL_KINDS, build_traffic_model


def main() -> None:
    rows = []
    for kind in TRAFFIC_MODEL_KINDS:
        traffic = None if kind == "saturated" else build_traffic_model(kind)
        spec = ScenarioSpec(total_nodes=64, num_channels=2, traffic=traffic)
        aggregate = aggregate_channel_rows(
            simulate_network(spec, superframes=20, seed=0))
        rows.append([
            kind,
            aggregate["packets_attempted"],
            aggregate["packets_delivered"],
            f"{aggregate['failure_probability']:.3f}",
            f"{aggregate['mean_power_uw']:.1f}",
            "-" if aggregate["mean_delivery_delay_s"] is None
            else f"{aggregate['mean_delivery_delay_s'] * 1e3:.1f}",
        ])

    print(format_table(
        ["traffic model", "attempted", "delivered", "Pr_fail",
         "power [uW]", "delay [ms]"],
        rows,
        title="One network, five workloads (64 nodes, 2 channels, "
              "20 superframes)"))
    print("\nSparse workloads sleep through empty superframes: the power "
          "drops toward the\nbeacon-tracking floor while the bursty alarm "
          "regime trades it for collisions\nwhen a burst drains packet by "
          "packet over consecutive superframes.")


if __name__ == "__main__":
    main()
