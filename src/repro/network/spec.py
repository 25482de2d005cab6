"""Declarative scenario specifications for the dense-network simulations.

A :class:`ScenarioSpec` captures *what* to simulate — population size, band,
superframe structure, payload, traffic period, CSMA/CA convention, battery
life extension, transmit-power policy — as one frozen, picklable value, and
knows how to build the runnable objects (:class:`DenseNetworkScenario`,
:class:`repro.mac.csma.CsmaParameters`,
:class:`repro.mac.superframe.SuperframeConfig`) from it.  That makes diverse
workloads one configuration away:

>>> spec = ScenarioSpec(total_nodes=320, superframes_hint=4)
>>> len(spec.channels)
16
>>> spec.csma_parameters().max_csma_backoffs
2

and it is what the channel fan-out of :mod:`repro.network.simulate` ships to
worker processes, so a full 16-channel case study is described once and
simulated anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.mac.constants import MAC_2450MHZ, MacConstants
from repro.mac.csma import CsmaParameters
from repro.mac.superframe import SuperframeConfig
from repro.network.geometry import (lowest_sufficient_levels,
                                    rx_power_threshold_dbm)
from repro.network.routing import RoutingModel
from repro.network.topology import TopologyModel
from repro.network.traffic import PeriodicSensingTraffic, TrafficModel
from repro.phy.bands import Band, CHANNEL_PAGES, channels_in_band
from repro.radio.power_profile import CC2420_PROFILE, RadioPowerProfile

#: Transmit-power policies a spec can request.
TX_POLICY_FIXED = "fixed"           # every node at ``tx_power_dbm``
TX_POLICY_ADAPTIVE = "adaptive"     # per-node channel inversion (Section 5)

#: CSMA/CA abort conventions (see ``CsmaParameters.from_mac_constants``).
CSMA_PAPER = "paper"                # abort after two BE increments
CSMA_STANDARD = "standard"          # standard macMaxCSMABackoffs = 4


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one dense-network workload.

    Attributes
    ----------
    name:
        Identifier used in reports and cache keys.
    total_nodes:
        Node population spread over the band's channels.
    band:
        Frequency band supplying the channel list and PHY timing.
    num_channels:
        How many of the band's channels to use (``None`` = all of them).
    beacon_order / superframe_order:
        Superframe structure; ``superframe_order`` of ``None`` means
        BO = SO (no inactive portion), the paper's case-study setting.
    payload_bytes / sample_bytes / sampling_interval_s:
        Traffic shape: payload assembled from periodic sensor readings.
    traffic:
        Per-node packet process offered to the MAC
        (:class:`repro.network.traffic.TrafficModel`).  ``None`` — the
        default — is the paper's saturated assumption: one packet ready at
        every beacon.  Any configured model must carry the spec's
        ``payload_bytes``.
    topology:
        Node layout per channel
        (:class:`repro.network.topology.TopologyModel`).  ``None`` — the
        default — and :class:`repro.network.topology.StarTopologyModel`
        both keep the paper's star: path losses drawn directly from the
        uniform bounds below, no geometry.  A geometric model (grid /
        disc / cluster) places nodes instead and derives every loss from
        the placement.
    routing:
        Sink-tree discipline (:class:`repro.network.routing.RoutingModel`)
        applied to a geometric topology.  ``None`` or ``max_hops`` of 1
        keeps every node on a direct sink link; deeper trees add relay
        forwarding load.  Requires a geometric topology when multi-hop.
    path_loss_low_db / path_loss_high_db:
        Uniform path-loss population bounds (star topologies only).
    tx_policy / tx_power_dbm / target_packet_error:
        ``"fixed"`` transmits at ``tx_power_dbm`` everywhere; ``"adaptive"``
        assigns each node the lowest programmable level whose packet-error
        probability stays below ``target_packet_error`` (channel inversion,
        falling back to the maximum level for out-of-range nodes).
    battery_life_extension:
        Run CSMA/CA in battery-life-extension mode (BE capped at 2) — the
        mode the paper argues against for dense networks.
    csma_convention:
        ``"paper"`` or ``"standard"`` abort rule.
    backend:
        Default simulation backend for this workload: ``"batched"`` (all
        channels and replications in one lockstep kernel call) or
        ``"event"`` (the discrete-event reference, fanned out per channel
        — same counts).
    superframes_hint:
        Suggested simulation length in beacon intervals (drivers and
        examples may override).
    """

    name: str = "dense-network"
    total_nodes: int = 1600
    band: Band = Band.BAND_2450MHZ
    num_channels: Optional[int] = None
    beacon_order: int = 6
    superframe_order: Optional[int] = None
    payload_bytes: int = 120
    sample_bytes: int = 1
    sampling_interval_s: float = 8e-3
    traffic: Optional[TrafficModel] = None
    topology: Optional[TopologyModel] = None
    routing: Optional[RoutingModel] = None
    path_loss_low_db: float = 55.0
    path_loss_high_db: float = 95.0
    tx_policy: str = TX_POLICY_ADAPTIVE
    tx_power_dbm: float = 0.0
    target_packet_error: float = 0.01
    battery_life_extension: bool = False
    csma_convention: str = CSMA_PAPER
    backend: str = "batched"
    superframes_hint: int = 50

    def __post_init__(self):
        if self.total_nodes < 1:
            raise ValueError("total_nodes must be positive")
        if self.tx_policy not in (TX_POLICY_FIXED, TX_POLICY_ADAPTIVE):
            raise ValueError(f"Unknown tx_policy {self.tx_policy!r}; choose "
                             f"'{TX_POLICY_FIXED}' or '{TX_POLICY_ADAPTIVE}'")
        if self.csma_convention not in (CSMA_PAPER, CSMA_STANDARD):
            raise ValueError(
                f"Unknown csma_convention {self.csma_convention!r}; choose "
                f"'{CSMA_PAPER}' or '{CSMA_STANDARD}'")
        if self.backend not in ("event", "batched"):
            raise ValueError(f"Unknown backend {self.backend!r}")
        if self.superframes_hint < 1:
            raise ValueError("superframes_hint must be at least 1")
        available = CHANNEL_PAGES[self.band].channel_count
        if self.num_channels is not None and \
                not 1 <= self.num_channels <= available:
            raise ValueError(
                f"num_channels must lie in 1..{available} for band "
                f"{self.band.value}, got {self.num_channels}")
        if self.path_loss_high_db < self.path_loss_low_db:
            raise ValueError("path_loss_high_db must be >= path_loss_low_db")
        if self.traffic is not None:
            self.traffic.require_payload(self.payload_bytes, "the spec")
        if self.routing is not None and self.routing.max_hops > 1 and \
                (self.topology is None or not self.topology.geometric):
            raise ValueError(
                "Multi-hop routing needs a geometric topology (grid, disc "
                "or cluster); the star has no node-to-node links to relay "
                "over")

    # -- derived structure --------------------------------------------------------
    @property
    def channels(self) -> List[int]:
        """The RF channels the population is split over."""
        all_channels = channels_in_band(self.band)
        if self.num_channels is None:
            return all_channels
        return all_channels[:self.num_channels]

    def constants(self) -> MacConstants:
        """MAC constants bound to the spec's band timing."""
        if self.band is Band.BAND_2450MHZ:
            return MAC_2450MHZ
        return MacConstants(timing=CHANNEL_PAGES[self.band].timing)

    def sensing_traffic(self) -> PeriodicSensingTraffic:
        """The periodic sensing arithmetic (data rate, load, buffering)."""
        return PeriodicSensingTraffic(
            sample_bytes=self.sample_bytes,
            sampling_interval_s=self.sampling_interval_s,
            payload_bytes=self.payload_bytes)

    def csma_parameters(self) -> CsmaParameters:
        """Slotted CSMA/CA parameters implementing the spec's convention."""
        return CsmaParameters.from_mac_constants(
            self.constants(),
            paper_convention=self.csma_convention == CSMA_PAPER,
            battery_life_extension=self.battery_life_extension)

    def superframe_config(self) -> SuperframeConfig:
        """Superframe configuration shared by every channel."""
        superframe_order = self.superframe_order
        if superframe_order is None:
            superframe_order = self.beacon_order
        return SuperframeConfig(beacon_order=self.beacon_order,
                                superframe_order=superframe_order,
                                constants=self.constants())

    def build_seeded(self, placement_seed: int):
        """The scenario with an explicit placement seed (fan-out workers)."""
        from repro.network.scenario import DenseNetworkScenario

        return DenseNetworkScenario(
            total_nodes=self.total_nodes,
            channels=self.channels,
            traffic=self.sensing_traffic(),
            path_loss_low_db=self.path_loss_low_db,
            path_loss_high_db=self.path_loss_high_db,
            beacon_order=self.beacon_order,
            seed=placement_seed,
            tx_power_dbm=self.tx_power_dbm,
            traffic_model=self.traffic,
            topology_model=self.topology,
            routing_model=self.routing,
        )


def adaptive_tx_levels(path_losses_db, payload_on_air_bytes: int,
                       target_packet_error: float = 0.01,
                       profile: RadioPowerProfile = CC2420_PROFILE,
                       sensitivity_dbm: float = -94.0,
                       error_model=None) -> List[float]:
    """Channel-inversion link adaptation over the programmable TX levels.

    Returns, for every path loss, the lowest programmable level whose
    packet-error probability for a ``payload_on_air_bytes`` frame stays at
    or below ``target_packet_error``; nodes no level can serve fall back to
    the maximum level (the paper assumes every node is reachable at 0 dBm).

    The packet-error constraint is reduced to a received-power threshold by
    bisection (the BER model is monotone in received power), so the per-node
    work is a single vectorised comparison — both steps shared with the
    topology layer through :mod:`repro.network.geometry`.
    """
    rx_threshold = rx_power_threshold_dbm(
        payload_on_air_bytes, target_packet_error=target_packet_error,
        sensitivity_dbm=sensitivity_dbm, error_model=error_model)
    return lowest_sufficient_levels(path_losses_db, rx_threshold,
                                    profile.tx_level_dbms())


#: The paper's Section 5 workload: 1600 nodes over the sixteen 2450 MHz
#: channels, BO = SO = 6, 120-byte payloads, channel-inversion adaptation.
CASE_STUDY_SPEC = ScenarioSpec(name="case_study_full")
