"""Packet-size and beacon-order optimisation (Section 5, Figure 8).

The paper studies which packet payload size minimises the energy per useful
bit.  Small packets pay the fixed PHY+MAC+contention overhead per few bits;
large packets are more likely to be corrupted and, at high load, to suffer
channel access failures.  The result (Figure 8) is that the energy per bit
decreases monotonically up to the maximum payload the standard allows
(123 bytes with the paper's overhead accounting), so the case study buffers
sensor readings until 120 bytes are accumulated.

The beacon order is then chosen so that exactly one packet per node is
transmitted per superframe; with 100 nodes x 120 bytes every 960 ms the
paper sets BO = 6 (inter-beacon period 983 ms, channel load ~42 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


from repro.core.energy_model import EnergyModel
from repro.mac.superframe import SuperframeConfig


@dataclass(frozen=True)
class PacketSizePoint:
    """Energy per bit at one payload size / load combination."""

    payload_bytes: int
    load: float
    energy_per_bit_j: float
    transaction_failure_probability: float
    average_power_w: float


@dataclass
class PacketSizeSweep:
    """Result of a packet-size sweep at one network load."""

    load: float
    points: List[PacketSizePoint]

    @property
    def optimal_payload_bytes(self) -> int:
        """Payload size minimising the energy per bit."""
        best = min(self.points, key=lambda p: p.energy_per_bit_j)
        return best.payload_bytes

    def is_monotonically_decreasing(self, tolerance: float = 0.02) -> bool:
        """Whether the energy per bit decreases (within ``tolerance``) with size.

        This is the paper's Figure 8 observation; the tolerance absorbs the
        Monte-Carlo noise of the contention characterisation.
        """
        energies = [p.energy_per_bit_j for p in self.points]
        for previous, current in zip(energies, energies[1:]):
            if current > previous * (1.0 + tolerance):
                return False
        return True


class PacketSizeOptimizer:
    """Sweep the payload size and report the energy per useful bit (Figure 8).

    Parameters
    ----------
    model:
        The analytical energy model.
    path_loss_db:
        Link attenuation used for the sweep (a representative mid-range value).
    tx_power_dbm:
        Transmit power (``None`` = maximum level).
    beacon_order:
        Beacon order of the scenario.
    """

    def __init__(self, model: EnergyModel, path_loss_db: float = 75.0,
                 tx_power_dbm: Optional[float] = None, beacon_order: int = 6):
        self.model = model
        self.path_loss_db = path_loss_db
        self.tx_power_dbm = (model.config.profile.max_tx_level_dbm
                             if tx_power_dbm is None else tx_power_dbm)
        self.beacon_order = beacon_order

    def sweep(self, load: float,
              payload_sizes: Optional[Sequence[int]] = None) -> PacketSizeSweep:
        """Evaluate the energy per bit across payload sizes at ``load``."""
        if payload_sizes is None:
            payload_sizes = [5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 123]
        points = []
        for payload in payload_sizes:
            if payload < 1:
                raise ValueError("Payload sizes must be positive")
            budget = self.model.evaluate(
                payload_bytes=int(payload),
                tx_power_dbm=self.tx_power_dbm,
                path_loss_db=self.path_loss_db,
                load=load,
                beacon_order=self.beacon_order,
            )
            points.append(PacketSizePoint(
                payload_bytes=int(payload),
                load=load,
                energy_per_bit_j=budget.energy_per_bit_j,
                transaction_failure_probability=budget.transaction_failure_probability,
                average_power_w=budget.average_power_w,
            ))
        return PacketSizeSweep(load=load, points=points)


@dataclass(frozen=True)
class BeaconOrderChoice:
    """Outcome of the beacon-order selection."""

    beacon_order: int
    inter_beacon_period_s: float
    channel_load: float
    packets_per_node_per_superframe: float


class BeaconOrderSelector:
    """Choose the beacon order for a periodic data-gathering scenario.

    The paper's rule: buffer readings until a full packet is available and
    pick BO so one packet per node fits per superframe — the smallest BO
    whose inter-beacon period is at least the packet accumulation period.
    """

    def __init__(self, model: EnergyModel, nodes_per_channel: int = 100):
        self.model = model
        self.nodes_per_channel = nodes_per_channel

    def accumulation_period_s(self, payload_bytes: int,
                              node_data_rate_bps: float) -> float:
        """Time for one node to accumulate ``payload_bytes`` of sensor data."""
        if node_data_rate_bps <= 0:
            raise ValueError("node_data_rate_bps must be positive")
        return payload_bytes * 8 / node_data_rate_bps

    def select(self, payload_bytes: int, node_data_rate_bps: float) -> BeaconOrderChoice:
        """Smallest BO whose inter-beacon period fits the accumulation period."""
        constants = self.model.config.constants
        accumulation = self.accumulation_period_s(payload_bytes, node_data_rate_bps)
        for beacon_order in range(0, constants.max_beacon_order):
            period = constants.beacon_interval_s(beacon_order)
            if period >= accumulation:
                packets_per_superframe = period / accumulation
                config = SuperframeConfig(beacon_order=beacon_order,
                                          superframe_order=beacon_order,
                                          constants=constants)
                on_air = self.model.packet_bytes_on_air(payload_bytes)
                load = config.offered_load(
                    nodes=self.nodes_per_channel,
                    payload_bytes=on_air,
                    packets_per_node_per_beacon=min(1.0, packets_per_superframe))
                return BeaconOrderChoice(
                    beacon_order=beacon_order,
                    inter_beacon_period_s=period,
                    channel_load=load,
                    packets_per_node_per_superframe=min(1.0, packets_per_superframe),
                )
        raise ValueError("No beacon order accommodates the requested traffic")
