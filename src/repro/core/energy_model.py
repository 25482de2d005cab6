"""Analytical average-power model of an 802.15.4 node (equations 3–12, 14).

The model computes, for one node following the energy-aware activation
policy, the expected time spent in each radio state during one inter-beacon
period and converts it into the average power (equation 11):

    P_avr = (P_idle T_idle + P_Tx T_Tx + P_Rx T_Rx) / T_ib

The occupancy times follow the paper's equations (4)–(6), with the state
transition delays added to the active time of the *arrival* state (the
paper's worst-case convention), and the expected number of transmissions
per packet obtained from the per-attempt failure probability (equations
7–10) and the empirically characterised contention statistics
(``T_cont``, ``N_CCA``, ``Pr_col``, ``Pr_cf``).

Differences with respect to the paper's printed equations, kept explicit
because they matter for exact reproduction:

* the receive time charged per clear channel assessment is the idle-to-RX
  turn-on transient (``T_ia``) **plus** the 8-symbol CCA sensing time; the
  printed equation (6) only shows ``N_CCA x T_ia`` (set
  ``ModelConfig.include_cca_sense_time = False`` to reproduce that exact
  accounting);
* the idle-to-TX turn-on transient is charged at transmit power ahead of
  each transmission (``ModelConfig.include_tx_turnon``), consistent with the
  measured 6.63 µJ transition energy of Figure 3; equation (5) omits it;
* the residual shutdown time is charged at the measured 144 nW instead of
  being neglected (the paper neglects it; the difference is ~0.1 µW).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

from repro.contention.statistics import ContentionStatistics
from repro.core.activation_policy import ActivationPolicy
from repro.core.reliability import (
    AttemptDistribution,
    delivery_delay_s,
    energy_per_data_bit_j,
    transaction_failure_probability,
    transmission_attempt_distribution,
    transmission_failure_probability,
)
from repro.mac.constants import (MAC_2450MHZ, PHASE_ACK, PHASE_BEACON,
                                 PHASE_CONTENTION, PHASE_SLEEP,
                                 PHASE_TRANSMIT, MacConstants)
from repro.mac.frames import AckFrame, BeaconFrame, DataFrame, total_packet_overhead_bytes
from repro.phy.constants import CCA_DURATION_S
from repro.phy.error_model import EmpiricalBerModel, ErrorModel, packet_error_probability
from repro.radio.power_profile import (
    CC2420_PROFILE,
    RadioPowerProfile,
    T_IDLE_TO_ACTIVE_S,
)
from repro.radio.states import RadioState

#: Type of a contention-statistics source: (load, on-air packet bytes) -> stats.
ContentionSource = Callable[[float, int], ContentionStatistics]


@dataclass(frozen=True)
class ModelConfig:
    """Static configuration of the analytical model.

    Attributes
    ----------
    profile:
        Radio power/energy profile (CC2420 measurements by default).
    constants:
        MAC constants bound to the PHY timing.
    error_model:
        Bit-error model as a function of received power (equation 1).
    policy:
        Radio activation policy.
    beacon_frame:
        The beacon whose airtime the node spends receiving each superframe.
        The default carries 12 bytes of network-maintenance payload, giving
        a ~1 ms beacon consistent with the ~20 % beacon share of the paper's
        energy breakdown (the paper does not state its exact beacon size).
    max_transmissions:
        ``N_max`` — total transmissions allowed per packet (5 in the paper).
    sensitivity_dbm:
        Received power below which packets are always lost.  The paper
        applies its BER regression without a hard cutoff (its case study
        extends to 95 dB path loss at 0 dBm, i.e. -95 dBm received power),
        so the default is set safely below the scenario range; set it to the
        CC2420's -94 dBm to model a hard sensitivity limit.
    include_cca_sense_time:
        Charge the 8-symbol CCA sensing time in receive, in addition to the
        turn-on transient (see module docstring).
    include_tx_turnon:
        Charge the idle-to-TX transient at transmit power per transmission.
    cca_rx_power_scale:
        Scaling of the receive power during clear channel assessment
        (1.0 = full receiver; < 1 models the paper's "scalable receiver").
    ack_rx_power_scale:
        Scaling of the receive power while waiting for the acknowledgement.
    """

    profile: RadioPowerProfile = CC2420_PROFILE
    constants: MacConstants = MAC_2450MHZ
    error_model: ErrorModel = field(default_factory=EmpiricalBerModel)
    policy: ActivationPolicy = field(default_factory=ActivationPolicy.paper)
    beacon_frame: BeaconFrame = field(
        default_factory=lambda: BeaconFrame(beacon_payload_bytes=12))
    max_transmissions: int = 5
    sensitivity_dbm: float = -100.0
    include_cca_sense_time: bool = True
    include_tx_turnon: bool = True
    cca_rx_power_scale: float = 1.0
    ack_rx_power_scale: float = 1.0

    def __post_init__(self):
        if self.max_transmissions < 1:
            raise ValueError("max_transmissions must be at least 1")
        for name in ("cca_rx_power_scale", "ack_rx_power_scale"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def beacon_airtime_s(self) -> float:
        """Airtime of the beacon frame."""
        return self.beacon_frame.airtime_s(self.constants.timing.byte_period_s)


@dataclass
class NodeEnergyBudget:
    """Full output of one model evaluation.

    Times are expected values per inter-beacon period; energies per phase
    feed the Figure 9 breakdowns; the scalar summary quantities reproduce
    the paper's headline metrics.
    """

    # inputs echoed back
    payload_bytes: int
    tx_power_dbm: float
    path_loss_db: float
    load: float
    beacon_order: int
    contention: ContentionStatistics
    attempt_distribution: AttemptDistribution

    # per-state expected occupancy times over one inter-beacon period [s]
    time_idle_s: float = 0.0
    time_tx_s: float = 0.0
    time_rx_s: float = 0.0
    time_shutdown_s: float = 0.0

    # per-phase energy [J] and time [s]
    energy_by_phase_j: Dict[str, float] = field(default_factory=dict)
    time_by_phase_s: Dict[str, float] = field(default_factory=dict)

    # headline quantities
    inter_beacon_period_s: float = 0.0
    total_energy_j: float = 0.0
    average_power_w: float = 0.0
    packet_error_probability: float = 0.0
    per_attempt_failure: float = 0.0
    transaction_failure_probability: float = 0.0
    delivery_delay_s: float = 0.0
    energy_per_bit_j: float = 0.0

    # -- convenience -----------------------------------------------------------------
    def time_by_state(self) -> Dict[RadioState, float]:
        """Expected occupancy per radio state (including shutdown)."""
        return {
            RadioState.IDLE: self.time_idle_s,
            RadioState.TX: self.time_tx_s,
            RadioState.RX: self.time_rx_s,
            RadioState.SHUTDOWN: self.time_shutdown_s,
        }

    def active_energy_j(self) -> float:
        """Energy excluding the sleep phase (what Figure 9a is normalised to)."""
        return sum(energy for phase, energy in self.energy_by_phase_j.items()
                   if phase != PHASE_SLEEP)


class EnergyModel:
    """Evaluate the average power / reliability of one node (Section 4).

    Parameters
    ----------
    config:
        Static model configuration.
    contention_source:
        Callable mapping ``(load, on-air packet bytes)`` to
        :class:`ContentionStatistics` — typically a
        :class:`repro.contention.tables.ContentionTable`, the Monte-Carlo
        simulator itself, or the closed-form approximation.
    """

    def __init__(self, config: Optional[ModelConfig] = None,
                 contention_source: Optional[ContentionSource] = None):
        self.config = config or ModelConfig()
        if contention_source is None:
            from repro.contention.tables import default_contention_table
            contention_source = default_contention_table()
        self.contention_source = contention_source

    # -- building blocks --------------------------------------------------------------
    def packet_bytes_on_air(self, payload_bytes: int) -> int:
        """Total on-air packet size ``L_o + L`` (equation 3)."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        return total_packet_overhead_bytes() + payload_bytes

    def packet_airtime_s(self, payload_bytes: int) -> float:
        """Equation (3): T_packet = (L_o + L) x T_B."""
        return (self.packet_bytes_on_air(payload_bytes)
                * self.config.constants.timing.byte_period_s)

    def packet_error(self, payload_bytes: int, tx_power_dbm: float,
                     path_loss_db: float) -> float:
        """Equations (1), (2), (10): packet error probability of the link."""
        received = tx_power_dbm - path_loss_db
        if received < self.config.sensitivity_dbm:
            return 1.0
        ber = self.config.error_model.bit_error_probability(received)
        return packet_error_probability(ber, self.packet_bytes_on_air(payload_bytes))

    # -- main evaluation ---------------------------------------------------------------
    def evaluate(self, payload_bytes: int, tx_power_dbm: float,
                 path_loss_db: float, load: float,
                 beacon_order: int = 6,
                 contention: Optional[ContentionStatistics] = None) -> NodeEnergyBudget:
        """Evaluate the model at one operating point.

        Parameters
        ----------
        payload_bytes:
            Application payload per packet (``L``; 120 bytes in the case study).
        tx_power_dbm:
            Programmed transmit power (rounded up to a CC2420 level).
        path_loss_db:
            Link attenuation to the coordinator.
        load:
            Network load λ of the node's channel.
        beacon_order:
            BO; sets the inter-beacon period (equation 12).
        contention:
            Pre-computed contention statistics; fetched from the contention
            source when omitted.
        """
        cfg = self.config
        constants = cfg.constants
        policy = cfg.policy
        profile = cfg.profile

        packet_bytes = self.packet_bytes_on_air(payload_bytes)
        t_packet = self.packet_airtime_s(payload_bytes)
        t_ib = constants.beacon_interval_s(beacon_order)

        if contention is None:
            contention = self.contention_source(load, packet_bytes)

        # ---- reliability chain (equations 7-10, 13) ---------------------------------
        pr_e = self.packet_error(payload_bytes, tx_power_dbm, path_loss_db)
        pr_tf = transmission_failure_probability(
            contention.collision_probability, pr_e)
        attempts = transmission_attempt_distribution(
            pr_tf, cfg.max_transmissions)
        pr_cf = contention.channel_access_failure_probability
        pr_fail = transaction_failure_probability(pr_cf,
                                                  attempts.exceed_probability)

        n_attempts = attempts.expected_transmissions
        n_contentions = pr_cf + (1.0 - pr_cf) * n_attempts
        n_transmissions = (1.0 - pr_cf) * n_attempts
        p_success = (1.0 - pr_cf) * attempts.success_probability
        n_failed_transmissions = n_transmissions - p_success

        # ---- per-phase state occupancy (equations 4-6) -------------------------------
        t_ia = profile.transition_time_s(RadioState.IDLE, RadioState.RX)
        t_ia_tx = profile.transition_time_s(RadioState.IDLE, RadioState.TX)
        cca_sense = CCA_DURATION_S if cfg.include_cca_sense_time else 0.0
        t_ack_min = constants.turnaround_time_s
        t_ack_max = constants.ack_wait_duration_s
        ack_airtime = AckFrame().airtime_s(constants.timing.byte_period_s)

        # Beacon phase: wake-up lead in the pre-beacon state, then receive the
        # beacon (turn-on transient charged at RX power).
        beacon_pre_state = policy.pre_beacon_state
        beacon_pre_time = policy.wake_lead_time_s if policy.wakeup_is_required else 0.0
        beacon_rx_time = t_ia + cfg.beacon_airtime_s

        # Contention phase: backoff delays in idle (or RX for the ablation
        # variant), each CCA charged as turn-on transient + sensing at
        # (possibly scaled) RX power.
        cca_per_procedure_rx = contention.mean_cca_count * (t_ia + cca_sense)
        contention_wait = max(0.0, contention.mean_contention_time_s
                              - contention.mean_cca_count * cca_sense)
        contention_rx_time = n_contentions * cca_per_procedure_rx
        contention_wait_time = n_contentions * contention_wait

        # Transmit phase.
        tx_turnon = t_ia_tx if cfg.include_tx_turnon else 0.0
        transmit_time = n_transmissions * (tx_turnon + t_packet)

        # Acknowledgement phase: idle during t-ack, then receive either the
        # acknowledgement (success) or until t+ack expires (failure).
        ack_idle_time = n_transmissions * t_ack_min
        ack_rx_success = p_success * (t_ia + ack_airtime)
        ack_rx_failure = n_failed_transmissions * (t_ia + max(0.0, t_ack_max - t_ack_min))
        ack_rx_time = ack_rx_success + ack_rx_failure

        # ---- aggregate per-state occupancy -------------------------------------------
        wait_state = policy.contention_wait_state
        time_idle = beacon_pre_time * (beacon_pre_state is RadioState.IDLE) \
            + contention_wait_time * (wait_state is RadioState.IDLE) \
            + ack_idle_time
        time_rx = beacon_pre_time * (beacon_pre_state is RadioState.RX) \
            + beacon_rx_time \
            + contention_rx_time \
            + contention_wait_time * (wait_state is RadioState.RX) \
            + ack_rx_time
        time_tx = transmit_time
        active_time = time_idle + time_rx + time_tx
        if active_time > t_ib:
            # Physically the transaction cannot exceed the superframe; clamp
            # the sleep time at zero and keep the active accounting (this only
            # happens for extreme loads / tiny beacon orders).
            time_shutdown = 0.0
        else:
            time_shutdown = t_ib - active_time

        # ---- energies ------------------------------------------------------------------
        p_idle = profile.power_w(RadioState.IDLE)
        p_rx = profile.power_w(RadioState.RX)
        p_tx = profile.tx_power_w(tx_power_dbm)
        p_shutdown = profile.power_w(RadioState.SHUTDOWN)
        inactive_power = (p_shutdown if policy.inactive_state is RadioState.SHUTDOWN
                          else p_idle)

        pre_beacon_power = p_idle if beacon_pre_state is RadioState.IDLE else p_rx
        wait_power = p_idle if wait_state is RadioState.IDLE else p_rx
        cca_rx_power = p_rx * cfg.cca_rx_power_scale
        ack_rx_power = p_rx * cfg.ack_rx_power_scale

        energy_beacon = (policy.wakeup_energy_j()
                         + beacon_pre_time * pre_beacon_power
                         + beacon_rx_time * p_rx)
        energy_contention = (contention_wait_time * wait_power
                             + contention_rx_time * cca_rx_power)
        energy_transmit = transmit_time * p_tx
        energy_ack = (ack_idle_time * p_idle
                      + ack_rx_time * ack_rx_power)
        energy_sleep = time_shutdown * inactive_power

        energy_by_phase = {
            PHASE_BEACON: energy_beacon,
            PHASE_CONTENTION: energy_contention,
            PHASE_TRANSMIT: energy_transmit,
            PHASE_ACK: energy_ack,
            PHASE_SLEEP: energy_sleep,
        }
        time_by_phase = {
            PHASE_BEACON: beacon_pre_time + beacon_rx_time,
            PHASE_CONTENTION: contention_wait_time + contention_rx_time,
            PHASE_TRANSMIT: transmit_time,
            PHASE_ACK: ack_idle_time + ack_rx_time,
            PHASE_SLEEP: time_shutdown,
        }

        total_energy = sum(energy_by_phase.values())
        average_power = total_energy / t_ib
        delay = delivery_delay_s(t_ib, pr_fail)
        energy_per_bit = energy_per_data_bit_j(average_power, delay,
                                               max(payload_bytes, 1))

        return NodeEnergyBudget(
            payload_bytes=payload_bytes,
            tx_power_dbm=profile.tx_level(tx_power_dbm).level_dbm,
            path_loss_db=path_loss_db,
            load=load,
            beacon_order=beacon_order,
            contention=contention,
            attempt_distribution=attempts,
            time_idle_s=time_idle,
            time_tx_s=time_tx,
            time_rx_s=time_rx,
            time_shutdown_s=time_shutdown,
            energy_by_phase_j=energy_by_phase,
            time_by_phase_s=time_by_phase,
            inter_beacon_period_s=t_ib,
            total_energy_j=total_energy,
            average_power_w=average_power,
            packet_error_probability=pr_e,
            per_attempt_failure=pr_tf,
            transaction_failure_probability=pr_fail,
            delivery_delay_s=delay,
            energy_per_bit_j=energy_per_bit,
        )

    # -- derived models -----------------------------------------------------------------
    def with_config(self, **overrides) -> "EnergyModel":
        """A copy of the model with configuration fields replaced."""
        return EnergyModel(config=replace(self.config, **overrides),
                           contention_source=self.contention_source)

    def with_profile(self, profile: RadioPowerProfile) -> "EnergyModel":
        """A copy of the model using a different radio power profile."""
        policy = replace(self.config.policy, profile=profile)
        return EnergyModel(
            config=replace(self.config, profile=profile, policy=policy),
            contention_source=self.contention_source)
