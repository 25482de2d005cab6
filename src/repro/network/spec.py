"""Declarative scenario specifications for the dense-network simulations.

A :class:`ScenarioSpec` captures *what* to simulate — population size,
channels, superframe structure, payload, traffic, topology and routing,
CSMA/CA convention, battery life extension, transmit-power policy — as one
frozen, picklable value, and builds each channel's node population itself
(:meth:`ScenarioSpec.population`) together with the shared MAC settings
(:meth:`ScenarioSpec.csma_parameters`,
:meth:`ScenarioSpec.superframe_config`).  That makes diverse workloads one
configuration away:

>>> spec = ScenarioSpec(total_nodes=320)
>>> len(spec.channels)
16
>>> spec.csma_parameters().max_csma_backoffs
2
>>> nodes, tree = spec.population(seed=0)[11]
>>> len(nodes), tree is None
(20, True)

:func:`repro.network.simulate.simulate_network` turns a spec into the
channel lanes both MAC kernels simulate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.mac.csma import CsmaParameters
from repro.mac.superframe import SuperframeConfig
from repro.network.geometry import (lowest_sufficient_levels,
                                    rx_power_threshold_dbm)
from repro.network.node import SensorNode
from repro.network.routing import GradientRouting, RoutingModel, SinkTree
from repro.network.topology import TopologyModel
from repro.network.traffic import TrafficModel
from repro.phy.bands import Band, channels_in_band
from repro.phy.error_model import EmpiricalBerModel
from repro.radio.power_profile import CC2420_PROFILE
from repro.sim.random import RandomStreams

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
    total_nodes:
        Node population spread over the channels (1600 in the paper).
    num_channels:
        How many of the sixteen 2450 MHz channels to use (``None`` = all
        of them).
    beacon_order / superframe_order:
        Superframe structure; ``superframe_order`` of ``None`` means
        BO = SO (no inactive portion), the paper's case-study setting.
    payload_bytes:
        Uplink packet payload.
    traffic:
        Per-node packet process offered to the MAC
        (:class:`repro.network.traffic.TrafficModel`).  ``None`` — the
        default — is the paper's saturated assumption: one packet ready at
        every beacon.  Any configured model must carry the spec's
        ``payload_bytes``.
    topology:
        Node layout per channel
        (:class:`repro.network.topology.TopologyModel`).  ``None`` — the
        default — is the paper's star: path losses drawn directly from the
        uniform bounds below, no geometry.  A model (grid / disc /
        cluster) places nodes instead and derives every loss from the
        placement.
    routing:
        Sink-tree discipline (:class:`repro.network.routing.RoutingModel`)
        applied to the topology.  ``None`` or ``max_hops`` of 1 keeps
        every node on a direct sink link; deeper trees add relay
        forwarding load.  Requires a topology when multi-hop.
    path_loss_low_db / path_loss_high_db:
        Uniform path-loss population bounds (the star only).
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
    """

    total_nodes: int = 1600
    num_channels: Optional[int] = None
    beacon_order: int = 6
    superframe_order: Optional[int] = None
    payload_bytes: int = 120
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
        available = len(channels_in_band(Band.BAND_2450MHZ))
        if self.num_channels is not None and \
                not 1 <= self.num_channels <= available:
            raise ValueError(
                f"num_channels must lie in 1..{available}, got "
                f"{self.num_channels}")
        if self.path_loss_high_db < self.path_loss_low_db:
            raise ValueError("path_loss_high_db must be >= path_loss_low_db")
        if self.traffic is not None:
            self.traffic.require_payload(self.payload_bytes, "the spec")
        if self.routing is not None and self.routing.max_hops > 1 and \
                self.topology is None:
            raise ValueError(
                "Multi-hop routing needs a geometric topology (grid, disc "
                "or cluster); the star has no node-to-node links to relay "
                "over")

    # -- derived structure --------------------------------------------------------
    @property
    def channels(self) -> List[int]:
        """The RF channels the population is split over."""
        return channels_in_band(Band.BAND_2450MHZ)[:self.num_channels]

    def csma_parameters(self) -> CsmaParameters:
        """Slotted CSMA/CA parameters implementing the spec's convention."""
        return CsmaParameters.from_mac_constants(
            paper_convention=self.csma_convention == CSMA_PAPER,
            battery_life_extension=self.battery_life_extension)

    def superframe_config(self) -> SuperframeConfig:
        """Superframe configuration shared by every channel."""
        superframe_order = self.superframe_order
        if superframe_order is None:
            superframe_order = self.beacon_order
        return SuperframeConfig(beacon_order=self.beacon_order,
                                superframe_order=superframe_order)

    def population(self, seed: int
                   ) -> Dict[int, Tuple[List[SensorNode], Optional[SinkTree]]]:
        """Each channel's nodes, in ascending id order, and its sink tree.

        Nodes ``1 .. total_nodes`` are dealt round robin over
        :attr:`channels`, and every draw comes from a named stream of
        ``RandomStreams(seed)``.  The star draws each node's sink loss
        from the uniform bounds (stream ``scenario.pathloss``, the
        paper's abstraction) and has no tree.  A geometric topology
        places each channel's nodes (stream
        ``scenario.topology[<channel>]``), routes them (stream
        ``scenario.routing[<channel>]``; single-hop gradient routing by
        default) and gives every node the median loss of its *parent
        link* — the loss its transmissions must close, which is what
        channel-inversion adaptation and the AWGN link model act on.
        """
        streams = RandomStreams(seed)
        channels = self.channels
        members: Dict[int, List[int]] = {channel: [] for channel in channels}
        for node_id in range(1, self.total_nodes + 1):
            members[channels[(node_id - 1) % len(channels)]].append(node_id)
        trees: Dict[int, SinkTree] = {}
        if self.topology is None:
            losses = streams.get("scenario.pathloss").uniform(
                self.path_loss_low_db, self.path_loss_high_db,
                size=self.total_nodes)
            loss_of = dict(enumerate(losses.tolist(), start=1))
        else:
            routing = self.routing or GradientRouting(max_hops=1)
            loss_of = {}
            for channel, ids in members.items():
                if not ids:
                    continue
                network = self.topology.build_network(
                    ids, rng=streams.get(f"scenario.topology[{channel}]"))
                trees[channel] = routing.build_tree(
                    network, rng=streams.get(f"scenario.routing[{channel}]"))
                loss_of.update(trees[channel].link_loss_db)
        error_model = EmpiricalBerModel()
        return {channel: ([SensorNode(node_id=node_id, channel=channel,
                                      path_loss_db=loss_of[node_id],
                                      error_model=error_model)
                           for node_id in ids], trees.get(channel))
                for channel, ids in members.items()}


def adaptive_tx_levels(path_losses_db, payload_on_air_bytes: int,
                       target_packet_error: float = 0.01) -> List[float]:
    """Channel-inversion link adaptation over the CC2420's TX levels.

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
        payload_on_air_bytes, target_packet_error=target_packet_error)
    return lowest_sufficient_levels(path_losses_db, rx_threshold,
                                    CC2420_PROFILE.tx_level_dbms())
