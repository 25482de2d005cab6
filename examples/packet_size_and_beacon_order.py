#!/usr/bin/env python
"""Packet-size and beacon-order optimisation (Figure 8 and the case-study setup).

Shows how the library answers the two protocol-parameter questions of the
paper's Section 5:

1. Which payload size minimises the energy per useful bit?  (Figure 8 —
   the answer is "the largest one the standard allows", hence buffering.)
2. Which beacon order fits one packet per node per superframe for the
   1 kbit/s sensing traffic?  (The answer is BO = 6.)

The Figure 8 sweep goes through the engine's ``fig8_packet`` experiment
(equivalent CLI: ``python -m repro run fig8_packet``); the beacon-order
selection then uses the optimizer API directly.

Run with::

    python examples/packet_size_and_beacon_order.py
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.contention import build_contention_table
from repro.core import EnergyModel
from repro.core.optimizer import BeaconOrderSelector, PacketSizeOptimizer
from repro.network.traffic import PeriodicSensingTraffic
from repro.runner import run_experiment


def main() -> None:
    model = EnergyModel(contention_source=build_contention_table())

    # ---- Figure 8: energy per bit vs payload size (through the engine) -----------
    loads = (0.2, 0.42, 0.6)
    engine_run = run_experiment("fig8_packet", params={"loads": list(loads)})
    by_series = {}
    for row in engine_run.rows:
        by_series.setdefault(row["series"], []).append(row)
    payloads = [int(row["x"]) for row in next(iter(by_series.values()))]
    rows = []
    for index, payload in enumerate(payloads):
        row = [payload]
        for load in loads:
            row.append(by_series[f"load = {load:g}"][index]["y"] * 1e9)
        rows.append(row)
    print(format_table(
        ["payload [B]"] + [f"load {load:g} [nJ/bit]" for load in loads],
        rows, title="Figure 8: energy per bit vs payload size "
                    f"({'cache hit' if engine_run.cache_hit else 'computed'} "
                    f"in {engine_run.elapsed_s:.2f} s)"))
    optimizer = PacketSizeOptimizer(model, path_loss_db=75.0)
    for load in loads:
        sweep = optimizer.sweep(load, payloads)
        print(f"  load {load:g}: optimum at {sweep.optimal_payload_bytes} bytes, "
              f"monotonically decreasing: {sweep.is_monotonically_decreasing(0.05)}")
    print()

    # ---- beacon order selection ------------------------------------------------------------
    traffic = PeriodicSensingTraffic(sample_bytes=1, sampling_interval_s=8e-3,
                                     payload_bytes=120)
    selector = BeaconOrderSelector(model, nodes_per_channel=100)
    rows = []
    for payload in (30, 60, 120):
        choice = selector.select(payload_bytes=payload,
                                 node_data_rate_bps=traffic.data_rate_bps)
        rows.append([payload, choice.beacon_order,
                     choice.inter_beacon_period_s, choice.channel_load])
    print(format_table(
        ["payload [B]", "beacon order", "inter-beacon period [s]", "channel load"],
        rows, title="Beacon order selection for 1 kbit/s sensing traffic "
                    "(paper: BO = 6 for 120-byte packets)"))
    print()
    print(f"Buffering delay for 120-byte packets: "
          f"{traffic.buffering_delay_s() * 1e3:.0f} ms on average "
          f"(the price of the larger packets)")


if __name__ == "__main__":
    main()
