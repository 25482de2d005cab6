"""Network scenario substrate.

Builds the dense microsensor network the paper studies: node placement
around the base station, the round-robin deal over the sixteen 2450 MHz
channels, per-node traffic models, sink-tree routing with per-hop
forwarding load (the NET layer), and the assembly of all of it, from one
declarative :class:`ScenarioSpec`, into the channel lanes both
packet-level MAC kernels simulate.

The names resolve on first access, so an experiment that never builds a
network never loads this package's modules.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.network.topology": ("NodePlacement", "NetworkTopology",
                               "TopologyModel", "GridTopologyModel",
                               "DiscTopologyModel", "ClusteredTopologyModel",
                               "TOPOLOGY_KINDS", "build_topology_model",
                               "uniform_disc_placement", "grid_placement",
                               "clustered_placement"),
    "repro.network.routing": ("RoutingModel", "GradientRouting",
                              "MinHopRouting", "SinkTree", "ROUTING_KINDS",
                              "build_routing_model", "depth_breakdown",
                              "lane_arrivals"),
    "repro.network.traffic": ("PeriodicSensingTraffic", "TrafficModel",
                              "SaturatedTraffic", "PoissonTraffic",
                              "BurstyAlarmTraffic", "MixedPopulation",
                              "build_traffic_model"),
    "repro.network.node": ("SensorNode",),
    "repro.network.scenario": ("EventChannelSimulator", "SimulationSummary"),
    "repro.network.spec": ("ScenarioSpec", "adaptive_tx_levels"),
    "repro.network.simulate": ("simulate_network", "aggregate_channel_rows"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
