"""Guaranteed-time-slot (GTS) versus contention access comparison.

Section 2 of the paper dismisses the contention-free period for dense
networks in one sentence: the number of dedicated slots "would not be
sufficient to accommodate several hundreds of nodes".  This module makes
that argument quantitative, and also answers the complementary question the
paper leaves implicit — how much energy a node *would* save if it could get
a GTS (no contention, no clear channel assessments, no collision risk):

* :class:`GtsEnergyModel` — average power of a node transmitting its packet
  in a dedicated slot, following the same activation policy (wake before the
  beacon, listen to the beacon, sleep until its slot, transmit, receive the
  acknowledgement, sleep);
* :class:`GtsVersusContention` — per-node energy and per-channel capacity of
  both access modes, showing the trade-off: GTS is cheaper per node but
  serves at most seven nodes per superframe, so a dense network must use the
  contention access period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.tables import format_table
from repro.core.energy_model import (
    EnergyModel,
    PHASE_ACK,
    PHASE_BEACON,
    PHASE_SLEEP,
    PHASE_TRANSMIT,
)
from repro.core.reliability import (
    delivery_delay_s,
    energy_per_data_bit_j,
    transaction_failure_probability,
    transmission_attempt_distribution,
)
from repro.mac.constants import MAC_2450MHZ
from repro.mac.frames import AckFrame
from repro.radio.states import RadioState

#: Maximum number of GTS descriptors a coordinator may allocate.
MAX_GTS_DESCRIPTORS = 7


@dataclass
class GtsNodeBudget:
    """Average-power budget of a node owning a guaranteed time slot."""

    payload_bytes: int
    tx_power_dbm: float
    path_loss_db: float
    beacon_order: int
    inter_beacon_period_s: float
    average_power_w: float
    transaction_failure_probability: float
    delivery_delay_s: float
    energy_per_bit_j: float
    energy_by_phase_j: Dict[str, float] = field(default_factory=dict)


class GtsEnergyModel:
    """Analytical energy model of a GTS (contention-free) node.

    Reuses the radio profile, error model and activation policy of an
    :class:`EnergyModel`; the difference is the absence of the contention
    phase (no backoff, no CCAs, no collisions) and the absence of channel
    access failures — packet loss comes from bit errors only.
    """

    def __init__(self, base_model: Optional[EnergyModel] = None):
        self.base = base_model or EnergyModel()

    def evaluate(self, payload_bytes: int, tx_power_dbm: float,
                 path_loss_db: float, beacon_order: int = 6) -> GtsNodeBudget:
        """Average power of a GTS node at one operating point."""
        cfg = self.base.config
        constants = cfg.constants
        profile = cfg.profile
        policy = cfg.policy

        t_ib = constants.beacon_interval_s(beacon_order)
        t_packet = self.base.packet_airtime_s(payload_bytes)
        t_ia = profile.transition_time_s(RadioState.IDLE, RadioState.RX)
        t_ia_tx = profile.transition_time_s(RadioState.IDLE, RadioState.TX)
        ack_airtime = AckFrame().airtime_s(constants.timing.byte_period_s)

        # Reliability: no collisions and no channel access failures in a GTS;
        # retransmissions (in later superframes' slots) only from bit errors.
        pr_e = self.base.packet_error(payload_bytes, tx_power_dbm, path_loss_db)
        attempts = transmission_attempt_distribution(pr_e, cfg.max_transmissions)
        # Within one superframe the node gets a single slot, so each
        # transmission attempt costs one superframe: the per-superframe budget
        # uses a single attempt and the failure probability equals Pr_e.
        pr_fail = transaction_failure_probability(0.0, pr_e)

        beacon_pre_time = policy.wake_lead_time_s if policy.wakeup_is_required else 0.0
        beacon_rx_time = t_ia + cfg.beacon_airtime_s
        tx_turnon = t_ia_tx if cfg.include_tx_turnon else 0.0
        transmit_time = tx_turnon + t_packet
        ack_idle_time = constants.turnaround_time_s
        ack_rx_time = (1.0 - pr_e) * (t_ia + ack_airtime) \
            + pr_e * (t_ia + max(0.0, constants.ack_wait_duration_s
                                 - constants.turnaround_time_s))

        p_idle = profile.power_w(RadioState.IDLE)
        p_rx = profile.power_w(RadioState.RX)
        p_tx = profile.tx_power_w(tx_power_dbm)
        p_shutdown = profile.power_w(RadioState.SHUTDOWN)

        energy_beacon = (policy.wakeup_energy_j()
                         + beacon_pre_time * p_idle + beacon_rx_time * p_rx)
        energy_transmit = transmit_time * p_tx
        energy_ack = ack_idle_time * p_idle \
            + ack_rx_time * p_rx * cfg.ack_rx_power_scale
        active_time = (beacon_pre_time + beacon_rx_time + transmit_time
                       + ack_idle_time + ack_rx_time)
        sleep_time = max(0.0, t_ib - active_time)
        energy_sleep = sleep_time * p_shutdown

        total = energy_beacon + energy_transmit + energy_ack + energy_sleep
        average_power = total / t_ib
        delay = delivery_delay_s(t_ib, pr_fail)
        return GtsNodeBudget(
            payload_bytes=payload_bytes,
            tx_power_dbm=profile.tx_level(tx_power_dbm).level_dbm,
            path_loss_db=path_loss_db,
            beacon_order=beacon_order,
            inter_beacon_period_s=t_ib,
            average_power_w=average_power,
            transaction_failure_probability=pr_fail,
            delivery_delay_s=delay,
            energy_per_bit_j=energy_per_data_bit_j(average_power, delay,
                                                   max(payload_bytes, 1)),
            energy_by_phase_j={
                PHASE_BEACON: energy_beacon,
                PHASE_TRANSMIT: energy_transmit,
                PHASE_ACK: energy_ack,
                PHASE_SLEEP: energy_sleep,
            },
        )


@dataclass
class GtsComparisonResult:
    """Outcome of the GTS-vs-contention comparison at one operating point."""

    contention_power_w: float
    gts_power_w: float
    contention_failure: float
    gts_failure: float
    gts_capacity_nodes: int
    contention_capacity_nodes: int

    @property
    def per_node_saving(self) -> float:
        """Fraction of the per-node power a GTS would save."""
        return 1.0 - self.gts_power_w / self.contention_power_w

    @property
    def gts_serves_dense_network(self) -> bool:
        """Whether GTS could serve the paper's 100 nodes per channel."""
        return self.gts_capacity_nodes >= self.contention_capacity_nodes


class GtsVersusContention:
    """Quantifies the paper's 'GTS does not fit dense networks' argument.

    Parameters
    ----------
    model:
        Contention-mode energy model (the paper's model).
    nodes_per_channel:
        Population the channel must serve (100 in the case study).
    gts_slots_per_node:
        Superframe slots a GTS allocation would need for one packet; with
        BO = 6 a slot lasts 61 ms, far more than the 4.5 ms transaction, so
        one slot suffices.
    """

    def __init__(self, model: Optional[EnergyModel] = None,
                 nodes_per_channel: int = 100, gts_slots_per_node: int = 1):
        self.model = model or EnergyModel()
        self.gts_model = GtsEnergyModel(self.model)
        self.nodes_per_channel = nodes_per_channel
        self.gts_slots_per_node = gts_slots_per_node

    def compare(self, payload_bytes: int = 120, tx_power_dbm: float = 0.0,
                path_loss_db: float = 75.0, load: float = 0.42,
                beacon_order: int = 6) -> GtsComparisonResult:
        """Evaluate both access modes at one operating point."""
        contention = self.model.evaluate(
            payload_bytes=payload_bytes, tx_power_dbm=tx_power_dbm,
            path_loss_db=path_loss_db, load=load, beacon_order=beacon_order)
        gts = self.gts_model.evaluate(
            payload_bytes=payload_bytes, tx_power_dbm=tx_power_dbm,
            path_loss_db=path_loss_db, beacon_order=beacon_order)
        gts_capacity = min(MAX_GTS_DESCRIPTORS,
                           MAX_GTS_DESCRIPTORS // self.gts_slots_per_node
                           if self.gts_slots_per_node > 0 else 0)
        return GtsComparisonResult(
            contention_power_w=contention.average_power_w,
            gts_power_w=gts.average_power_w,
            contention_failure=contention.transaction_failure_probability,
            gts_failure=gts.transaction_failure_probability,
            gts_capacity_nodes=gts_capacity,
            contention_capacity_nodes=self.nodes_per_channel,
        )

    def to_table(self, result: Optional[GtsComparisonResult] = None) -> str:
        """Render the comparison as an ASCII table."""
        result = result or self.compare()
        return format_table(
            ["quantity", "contention access", "guaranteed time slot"],
            [
                ["average node power [uW]", result.contention_power_w * 1e6,
                 result.gts_power_w * 1e6],
                ["transaction failure probability", result.contention_failure,
                 result.gts_failure],
                ["nodes servable per channel / superframe",
                 result.contention_capacity_nodes, result.gts_capacity_nodes],
            ],
            title="GTS vs contention access (dense-network argument of Section 2)")
