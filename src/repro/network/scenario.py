"""Scenario assembly: from the paper's case-study description to runnable objects.

``DenseNetworkScenario`` builds the 1600-node / 16-channel population with
its path losses and traffic, and can

* produce the per-channel analytical view consumed by
  :class:`repro.core.case_study.CaseStudy`, and
* instantiate a packet-level simulation of one channel
  (:class:`ChannelScenario`), used to cross-validate the analytical model
  (energy, failure rate, delay).

:meth:`ChannelScenario.run` offers two interchangeable kernels: the
discrete-event reference (``backend="event"``) and the batched lockstep
kernel (``backend="batched"``, :mod:`repro.mac.vectorized`) that makes the
full 100-nodes-per-channel case study tractable — identical counts for the
same seed, ≥10× faster.  The 16-channel fan-out lives in
:mod:`repro.network.simulate`, driven by the declarative specs of
:mod:`repro.network.spec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.mac.constants import MAC_2450MHZ, MacConstants
from repro.mac.csma import CsmaParameters
from repro.mac.superframe import SuperframeConfig
from repro.network.channel_allocation import ChannelAllocator
from repro.network.node import SensorNode
from repro.network.routing import (GradientRouting, RoutingModel, SinkTree,
                                   depth_breakdown, make_lane_sources)
from repro.network.traffic import (PeriodicSensingTraffic, SaturatedTraffic,
                                   TrafficModel, TrafficSource)
from repro.network.topology import NetworkTopology, TopologyModel
from repro.obs.tracer import current_tracer
from repro.phy.bands import Band, channels_in_band
from repro.phy.error_model import EmpiricalBerModel, ErrorModel
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


class ChannelScenario:
    """Packet-level simulation of one channel of the star network.

    Parameters
    ----------
    nodes:
        The sensor nodes assigned to this channel.
    config:
        Superframe configuration (BO = SO = 6 in the case study).
    constants:
        MAC constants.
    payload_bytes:
        Uplink packet payload.
    seed:
        Master seed for all random streams of the simulation.
    csma_params:
        CSMA/CA parameters (paper convention by default).
    default_tx_power_dbm:
        Transmit level used for nodes whose ``tx_power_dbm`` has not been
        assigned by link adaptation.  ``None`` (the default) makes an
        unassigned node an error instead of silently transmitting at an
        arbitrary level — pass the scenario's configured level explicitly
        (:class:`DenseNetworkScenario` does).
    traffic:
        Per-node packet process (:class:`repro.network.traffic.TrafficModel`)
        polled at every beacon by both kernels.  ``None`` (the default) is
        the paper's saturated assumption — one packet ready at every
        beacon.  The model's payload must equal ``payload_bytes``.
    tree:
        Sink tree of a routed channel
        (:class:`repro.network.routing.SinkTree`).  ``None`` (the default)
        is the classic star.  With a tree, relays offer forwarding-
        augmented traffic (their descendants' replayed streams, lagged one
        beacon interval per store-and-forward hop) and the summary carries
        the per-hop-depth breakdown.
    """

    #: Simulation backends accepted by :meth:`run`.
    BACKENDS = ("event", "batched")

    def __init__(self, nodes: List[SensorNode], config: SuperframeConfig,
                 constants: MacConstants = MAC_2450MHZ,
                 payload_bytes: int = 120, seed: int = 0,
                 csma_params: Optional[CsmaParameters] = None,
                 default_tx_power_dbm: Optional[float] = None,
                 traffic: Optional[TrafficModel] = None,
                 tree: Optional[SinkTree] = None):
        if not nodes:
            raise ValueError("A channel scenario needs at least one node")
        if traffic is not None:
            traffic.require_payload(payload_bytes, "the channel")
        if tree is not None and \
                sorted(n.node_id for n in nodes) != tree.node_ids:
            raise ValueError("The sink tree must span exactly the channel's "
                             "nodes")
        self.nodes = list(nodes)
        self.config = config
        self.constants = constants
        self.payload_bytes = payload_bytes
        self.seed = seed
        self.csma_params = csma_params or CsmaParameters.from_mac_constants(constants)
        self.default_tx_power_dbm = default_tx_power_dbm
        self.traffic = traffic
        self.tree = tree

    def resolved_tx_levels_dbm(self) -> List[float]:
        """The transmit level each node will use, aligned with ``nodes``.

        Raises
        ------
        ValueError
            If a node has no assigned level and the scenario has no
            configured default — set each node's ``tx_power_dbm`` (link
            adaptation) or construct the scenario with
            ``default_tx_power_dbm``.
        """
        levels = []
        for node in self.nodes:
            level = node.tx_power_dbm
            if level is None:
                level = self.default_tx_power_dbm
            if level is None:
                raise ValueError(
                    f"Node {node.node_id} has no transmit power assigned and "
                    f"the scenario has no default_tx_power_dbm; run link "
                    f"adaptation or configure a default level")
            levels.append(float(level))
        return levels

    def traffic_model(self) -> TrafficModel:
        """The packet process offered to the MAC (saturated by default)."""
        if self.traffic is not None:
            return self.traffic
        return SaturatedTraffic(payload_bytes=self.payload_bytes)

    def build_traffic_sources(self,
                              streams: RandomStreams) -> List[TrafficSource]:
        """One per-node feed per node, aligned with ``nodes``.

        Delegates to :func:`repro.network.routing.make_lane_sources`, the
        one place both kernels' stream naming (and forwarding augmentation)
        is defined; without a tree it reduces to
        :func:`repro.network.traffic.make_node_sources` exactly.
        """
        return make_lane_sources(self.traffic_model(),
                                 [node.node_id for node in self.nodes],
                                 streams, tree=self.tree,
                                 hop_lag_s=self.config.beacon_interval_s)

    def run(self, superframes: int = 10,
            backend: str = "event") -> SimulationSummary:
        """Simulate ``superframes`` beacon intervals and summarise the outcome.

        ``backend`` selects the simulation kernel: ``"event"`` is the
        discrete-event reference — one process per device, so every device
        has its own timeline — and the semantic oracle the other kernel is
        checked against; ``"batched"`` runs the channel as the single lane
        of :class:`repro.mac.vectorized.BatchedChannelSimulator` (identical
        counts for the same seed).  At the network level
        (:func:`repro.network.simulate.simulate_network`) the batched kernel
        takes every channel and replication in one lockstep call.  Each
        branch imports its own kernel, so a batched run loads none of the
        event kernel.
        """
        if backend not in self.BACKENDS:
            raise ValueError(f"Unknown backend {backend!r}; "
                             f"choose one of {', '.join(self.BACKENDS)}")
        if superframes < 1:
            raise ValueError("superframes must be at least 1")
        tx_levels = self.resolved_tx_levels_dbm()
        if backend == "batched":
            from repro.mac.vectorized import (BatchedChannelSimulator,
                                              ChannelLane)
            lane = ChannelLane(nodes=self.nodes, tx_levels_dbm=tx_levels,
                               seed=self.seed, tree=self.tree)
            simulator = BatchedChannelSimulator(
                [lane], config=self.config, constants=self.constants,
                payload_bytes=self.payload_bytes,
                csma_params=self.csma_params, traffic=self.traffic)
            return simulator.run(superframes=superframes)[0]
        from repro.mac.coordinator import Coordinator
        from repro.mac.device import Device
        from repro.mac.medium import Medium
        from repro.sim.engine import Environment
        tracer = current_tracer()
        with tracer.span("kernel:event", kind="kernel",
                         devices=len(self.nodes), superframes=superframes):
            with tracer.span("setup", kind="phase"):
                streams = RandomStreams(self.seed)
                sources = self.build_traffic_sources(streams)
                env = Environment()
                channel = self.nodes[0].channel
                medium = Medium(env, channel=channel)

                links = {node.node_id: node.link() for node in self.nodes}
                coordinator = Coordinator(
                    env, medium, self.config, constants=self.constants,
                    links=links, rng=streams.get("coordinator"))

                devices: List[Device] = []
                for node, tx_level, source in zip(self.nodes, tx_levels,
                                                  sources):
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
                        traffic_source=source,
                        rng=streams.get(f"device[{node.node_id}]"),
                    )
                    devices.append(device)

                coordinator.start()
                for device in devices:
                    device.start()

                horizon = superframes * self.config.beacon_interval_s
            with tracer.span("contention_merge", kind="phase"):
                env.run(until=horizon)

            # -- aggregate ---------------------------------------------------------
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
                if self.tree is not None:
                    by_depth = depth_breakdown(
                        self.tree, [node.node_id for node in self.nodes],
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


@dataclass
class DenseNetworkScenario:
    """The full 1600-node, 16-channel dense network of Section 5.

    Attributes
    ----------
    total_nodes:
        Total population (1600 in the paper).
    channels:
        RF channels used (the sixteen 2450 MHz channels by default).
    traffic:
        Per-node sensing traffic.
    path_loss_low_db / path_loss_high_db:
        Bounds of the uniform path-loss distribution.
    beacon_order:
        Beacon order of every channel's superframe.
    seed:
        Master seed for node placement / path-loss draws.
    tx_power_dbm:
        Transmit level for nodes link adaptation has not (yet) assigned a
        per-node power to.  The paper's case study guarantees every node is
        reachable at the maximum 0 dBm, which is therefore the default.
    traffic_model:
        Per-node packet process for the packet-level simulations
        (:class:`repro.network.traffic.TrafficModel`); ``None`` keeps the
        paper's saturated assumption.  Independent of ``traffic``, which is
        the periodic sensing *arithmetic* the analytical view consumes.
    topology_model:
        Node layout (:class:`repro.network.topology.TopologyModel`).
        ``None`` or a non-geometric model keeps the paper's star draw:
        path losses uniform in the configured bounds, no placement.  A
        geometric model places each channel's population (its own
        ``scenario.topology[<channel>]`` stream) and derives every node's
        path loss from its *parent link* in the routing tree.
    routing_model:
        Sink-tree discipline (:class:`repro.network.routing.RoutingModel`)
        for geometric topologies; ``None`` defaults to single-hop gradient
        routing (every node on a direct sink link).  Tie-breaking draws
        from per-channel ``scenario.routing[<channel>]`` streams.
    """

    total_nodes: int = 1600
    channels: List[int] = field(
        default_factory=lambda: channels_in_band(Band.BAND_2450MHZ))
    traffic: PeriodicSensingTraffic = field(default_factory=PeriodicSensingTraffic)
    path_loss_low_db: float = 55.0
    path_loss_high_db: float = 95.0
    beacon_order: int = 6
    seed: int = 0
    error_model: ErrorModel = field(default_factory=EmpiricalBerModel)
    tx_power_dbm: float = 0.0
    traffic_model: Optional[TrafficModel] = None
    topology_model: Optional[TopologyModel] = None
    routing_model: Optional[RoutingModel] = None

    def __post_init__(self):
        if self.total_nodes < 1:
            raise ValueError("total_nodes must be positive")
        if not self.channels:
            raise ValueError("At least one channel is required")
        self._streams = RandomStreams(self.seed)
        self._nodes: Optional[List[SensorNode]] = None
        self._networks: Dict[int, NetworkTopology] = {}
        self._trees: Dict[int, SinkTree] = {}

    @property
    def is_geometric(self) -> bool:
        """Whether node path losses derive from placements (vs the star draw)."""
        return self.topology_model is not None and self.topology_model.geometric

    # -- population ------------------------------------------------------------------
    @property
    def nodes_per_channel(self) -> int:
        """Nominal population per channel (100 in the paper)."""
        return self.total_nodes // len(self.channels)

    def build_nodes(self) -> List[SensorNode]:
        """Create the node population with channels and path losses assigned.

        The star path draws each node's sink loss from the uniform bounds
        (the paper's abstraction); a geometric topology instead places each
        channel's population, routes it, and assigns every node the median
        loss of its *parent link* — the loss its transmissions must close,
        which is what channel-inversion adaptation and the AWGN link model
        act on.
        """
        if self._nodes is not None:
            return self._nodes
        node_ids = list(range(1, self.total_nodes + 1))
        assignment = ChannelAllocator(list(self.channels)) \
            .allocate_round_robin(node_ids)
        if not self.is_geometric:
            rng = self._streams.get("scenario.pathloss")
            losses = rng.uniform(self.path_loss_low_db,
                                 self.path_loss_high_db,
                                 size=self.total_nodes)
            loss_of = {node_id: float(losses[index])
                       for index, node_id in enumerate(node_ids)}
        else:
            routing = self.routing_model or GradientRouting(max_hops=1)
            loss_of = {}
            for channel in self.channels:
                ids = [n for n in node_ids if assignment[n] == channel]
                if not ids:
                    continue
                network = self.topology_model.build_network(
                    ids, rng=self._streams.get(
                        f"scenario.topology[{channel}]"))
                tree = routing.build_tree(
                    network, rng=self._streams.get(
                        f"scenario.routing[{channel}]"))
                self._networks[channel] = network
                self._trees[channel] = tree
                loss_of.update(tree.link_loss_db)
        self._nodes = [
            SensorNode(
                node_id=node_id,
                channel=assignment[node_id],
                path_loss_db=loss_of[node_id],
                traffic=self.traffic,
                error_model=self.error_model,
            )
            for node_id in node_ids
        ]
        return self._nodes

    def sink_tree(self, channel: int) -> Optional[SinkTree]:
        """The routing tree of ``channel``, or ``None`` for the star draw."""
        self.build_nodes()
        return self._trees.get(channel)

    def nodes_on_channel(self, channel: int) -> List[SensorNode]:
        """The sensor nodes assigned to ``channel``."""
        return [n for n in self.build_nodes() if n.channel == channel]

    # -- derived scenario quantities -----------------------------------------------------
    def superframe_config(self, constants: MacConstants = MAC_2450MHZ) -> SuperframeConfig:
        """Superframe configuration shared by every channel."""
        return SuperframeConfig(beacon_order=self.beacon_order,
                                superframe_order=self.beacon_order,
                                constants=constants)

    def channel_load(self, constants: MacConstants = MAC_2450MHZ) -> float:
        """Offered load per channel (≈ 0.42 for the paper's parameters)."""
        return self.traffic.offered_load(
            nodes=self.nodes_per_channel,
            channel_bit_rate_bps=constants.timing.bit_rate_bps)

    # -- packet-level simulation -----------------------------------------------------------
    def channel_scenario(self, channel: int, payload_bytes: Optional[int] = None,
                         max_nodes: Optional[int] = None,
                         constants: MacConstants = MAC_2450MHZ,
                         seed: Optional[int] = None,
                         csma_params: Optional[CsmaParameters] = None
                         ) -> ChannelScenario:
        """A packet-level simulation of one channel.

        ``max_nodes`` truncates the channel population (useful to keep
        pure-Python simulation times reasonable in tests and benches).
        Nodes without a link-adaptation power transmit at the scenario's
        configured ``tx_power_dbm``.
        """
        nodes = self.nodes_on_channel(channel)
        if not nodes:
            raise ValueError(f"No nodes are assigned to channel {channel}")
        tree = self.sink_tree(channel)
        if max_nodes is not None and len(nodes) > max_nodes:
            if tree is not None:
                raise ValueError(
                    "max_nodes cannot truncate a routed channel: the sink "
                    "tree spans the full population")
            nodes = nodes[:max_nodes]
        return ChannelScenario(
            nodes=nodes,
            config=self.superframe_config(constants),
            constants=constants,
            payload_bytes=payload_bytes or self.traffic.payload_bytes,
            seed=self.seed if seed is None else seed,
            csma_params=csma_params,
            default_tx_power_dbm=self.tx_power_dbm,
            traffic=self.traffic_model,
            tree=tree,
        )
