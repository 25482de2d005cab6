#!/usr/bin/env python
"""The multi-hop energy hole, measured on the dense-network simulator.

The paper's cluster is a 1-hop star, so its 211 uW headline never includes
relay traffic.  This example routes a 24-node grid channel over gradient
sink trees of increasing hop-depth cap and tabulates the per-depth power
breakdown: with ``max_hops=1`` every node talks straight to the sink (one
flat power level); with ``max_hops=2`` the eight first-ring relays forward
the outer ring's packets and their average power climbs well above the
leaves' — the energy hole that bounds a multi-hop deployment's lifetime.

Equivalent CLI::

    python -m repro run case_study_full --param topology=grid \
        --param max_hops=2 --param traffic_model=periodic \
        --param traffic_rate_scale=0.5

Run with::

    python examples/multi_hop_energy_hole.py
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.network import ScenarioSpec, aggregate_channel_rows, simulate_network
from repro.network.routing import build_routing_model
from repro.network.topology import build_topology_model
from repro.network.traffic import build_traffic_model


def main() -> None:
    rows = []
    for max_hops in (1, 2):
        spec = ScenarioSpec(
            total_nodes=24, num_channels=1,
            topology=build_topology_model("grid"),
            routing=build_routing_model("gradient", max_hops=max_hops),
            traffic=build_traffic_model("periodic", rate_scale=0.5))
        aggregate = aggregate_channel_rows(
            simulate_network(spec, superframes=12, seed=7,
                             backend="batched"))
        for hop_depth, bucket in sorted(aggregate["by_depth"].items()):
            rows.append([
                max_hops, hop_depth, bucket["nodes"],
                bucket["packets_delivered"],
                f"{bucket['mean_power_uw']:.1f}",
                "-" if bucket["mean_delivery_delay_s"] is None
                else f"{bucket['mean_delivery_delay_s'] * 1e3:.0f}",
            ])

    print(format_table(
        ["max_hops", "hop depth", "nodes", "delivered", "power [uW]",
         "delay [ms]"],
        rows,
        title="Per-hop-depth breakdown of a routed 24-node grid channel "
              "(periodic traffic, seed 7)"))
    print("\nWith max_hops=1 the grid collapses to a star and every ring "
          "pays only for its\nown traffic.  With max_hops=2 the outer "
          "ring's packets ride through the eight\nfirst-ring relays: the "
          "relays' power climbs while the leaves' drops (shorter,\n"
          "lower-level parent links) — forwarding load concentrates where "
          "the network can\nleast afford it, next to the sink.")


if __name__ == "__main__":
    main()
