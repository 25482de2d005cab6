"""The discrete-event MAC kernel, and the summary both MAC kernels return.

:class:`EventChannelSimulator` runs each lane
(:class:`repro.mac.vectorized.ChannelLane`) of its input on the
discrete-event engine: one process per device, so every device has its
own timeline.  It takes the batched kernel's input
(:class:`repro.mac.vectorized.ChannelSimulator`) and returns the same
:class:`SimulationSummary` per lane: identical counts for the same lanes,
energies to float-summation-order precision.  That makes it the semantic
oracle the batched kernel (:mod:`repro.mac.vectorized`) is checked
against.  :func:`repro.network.simulate.simulate_network` builds the lanes
of a :class:`repro.network.spec.ScenarioSpec` and runs them on either
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.mac.vectorized import ChannelLane, ChannelSimulator
from repro.network.routing import depth_breakdown, lane_arrivals
from repro.network.traffic import SaturatedTraffic
from repro.obs.tracer import current_tracer
from repro.sim.random import RandomStreams


@dataclass
class SimulationSummary:
    """Aggregate results of one packet-level channel simulation.

    ``mean_delivery_delay_s`` is ``None`` when not a single packet was
    delivered (e.g. a channel whose nodes are all out of range), so that
    downstream aggregation can skip the channel instead of propagating a
    ``NaN`` through report tables.

    ``by_depth`` is the per-hop-depth breakdown of a routed channel
    (:func:`repro.network.routing.depth_breakdown` — hop depth to node
    count, packet counts, mean power and delay), and ``None`` for the
    classic star path, keeping its summaries bit-identical.
    """

    simulated_time_s: float
    node_count: int
    superframes: int
    packets_attempted: int
    packets_delivered: int
    channel_access_failures: int
    collisions: int
    mean_node_power_w: float
    mean_delivery_delay_s: Optional[float]
    energy_by_phase_j: Dict[str, float]
    by_depth: Optional[Dict[int, Dict]] = None

    @property
    def failure_probability(self) -> float:
        """Fraction of attempted packets that were not delivered."""
        if self.packets_attempted == 0:
            return 0.0
        return 1.0 - self.packets_delivered / self.packets_attempted


class EventChannelSimulator(ChannelSimulator):
    """The discrete-event kernel over a list of channel lanes.

    Takes :class:`repro.mac.vectorized.ChannelSimulator`'s arguments, as
    :class:`repro.mac.vectorized.BatchedChannelSimulator` does.  Each lane
    runs on its own :class:`repro.sim.engine.Environment`; the kernel's
    modules load only when :meth:`run` is called, so a batched run loads
    none of them.
    """

    def run(self, superframes: int = 10) -> List[SimulationSummary]:
        """Simulate every lane for ``superframes`` beacon intervals, one
        after another, and return one summary per lane, in lane order."""
        if superframes < 1:
            raise ValueError("superframes must be at least 1")
        return [self._run_lane(lane, superframes) for lane in self.lanes]

    def _run_lane(self, lane: ChannelLane,
                  superframes: int) -> SimulationSummary:
        from repro.mac.coordinator import Coordinator
        from repro.mac.device import Device
        from repro.mac.medium import Medium
        from repro.sim.engine import Environment
        tracer = current_tracer()
        with tracer.span("kernel:event", kind="kernel",
                         devices=len(lane.nodes), superframes=superframes):
            with tracer.span("setup", kind="phase"):
                streams = RandomStreams(lane.seed)
                traffic = self.traffic
                if traffic is None:
                    traffic = SaturatedTraffic(
                        payload_bytes=self.payload_bytes)
                interval = self.config.beacon_interval_s
                arrivals = lane_arrivals(
                    traffic, [node.node_id for node in lane.nodes], streams,
                    np.arange(superframes) * interval, tree=lane.tree,
                    hop_lag_s=interval).tolist()
                env = Environment()
                channel = lane.nodes[0].channel
                medium = Medium(env, channel=channel)

                links = {node.node_id: node.link() for node in lane.nodes}
                coordinator = Coordinator(
                    env, medium, self.config, constants=self.constants,
                    links=links, rng=streams.get("coordinator"))

                devices: List[Device] = []
                for node, tx_level, row in zip(
                        lane.nodes, lane.tx_levels_dbm, arrivals):
                    device = Device(
                        env=env,
                        node_id=node.node_id,
                        medium=medium,
                        coordinator=coordinator,
                        config=self.config,
                        payload_bytes=self.payload_bytes,
                        tx_power_dbm=tx_level,
                        csma_params=self.csma_params,
                        constants=self.constants,
                        profile=self.profile,
                        arrivals=row,
                        rng=streams.get(f"device[{node.node_id}]"),
                    )
                    devices.append(device)

                coordinator.start()
                for device in devices:
                    device.start()

                horizon = superframes * interval
            with tracer.span("contention_merge", kind="phase"):
                env.run(until=horizon)

            # -- aggregate ----------------------------------------------------
            with tracer.span("energy_ledger", kind="phase"):
                packets_attempted = sum(d.counters.get("packets_attempted")
                                        for d in devices)
                packets_delivered = sum(d.counters.get("packets_delivered")
                                        for d in devices)
                access_failures = sum(
                    d.counters.get("channel_access_failures")
                    for d in devices)
                delays = [delay for d in devices
                          for delay in d.delays.values]
                powers = [d.radio.ledger.total_energy_j
                          / max(d.radio.time_s, 1e-12) for d in devices]
                energy_by_phase: Dict[str, float] = {}
                for device in devices:
                    ledger = device.radio.ledger
                    for phase, energy in ledger.energy_by_phase().items():
                        energy_by_phase[phase] = \
                            energy_by_phase.get(phase, 0.0) + energy
                by_depth = None
                if lane.tree is not None:
                    by_depth = depth_breakdown(
                        lane.tree, [node.node_id for node in lane.nodes],
                        [d.counters.get("packets_attempted")
                         for d in devices],
                        [d.counters.get("packets_delivered")
                         for d in devices],
                        [sum(d.delays.values) for d in devices],
                        [d.radio.ledger.total_energy_j for d in devices],
                        [d.radio.time_s for d in devices])

        return SimulationSummary(
            simulated_time_s=horizon,
            node_count=len(devices),
            superframes=superframes,
            packets_attempted=packets_attempted,
            packets_delivered=packets_delivered,
            channel_access_failures=access_failures,
            collisions=medium.collision_count,
            mean_node_power_w=float(np.mean(powers)) if powers else 0.0,
            mean_delivery_delay_s=float(np.mean(delays)) if delays else None,
            energy_by_phase_j=energy_by_phase,
            by_depth=by_depth,
        )


