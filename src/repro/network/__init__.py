"""Network scenario substrate.

Builds the dense microsensor network the paper studies: node placement
around the base station, channel allocation over the sixteen 2450 MHz
channels, periodic sensing traffic with buffering, sink-tree routing with
per-hop forwarding load (the NET layer), and the assembly of all of it
into a runnable packet-level simulation (for cross-validation of the
analytical model) or into analytical per-channel scenarios.

The names resolve on first access, so an experiment that never builds a
network never loads this package's modules.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.network.topology": ("NodePlacement", "NetworkTopology",
                               "TopologyModel",
                               "StarTopologyModel", "GridTopologyModel",
                               "DiscTopologyModel", "ClusteredTopologyModel",
                               "TOPOLOGY_KINDS", "build_topology_model",
                               "uniform_disc_placement", "grid_placement",
                               "clustered_placement"),
    "repro.network.routing": ("RoutingModel", "GradientRouting",
                              "MinHopRouting", "SinkTree", "ForwardingSource",
                              "ROUTING_KINDS", "build_routing_model",
                              "depth_breakdown", "make_lane_sources"),
    "repro.network.traffic": ("PeriodicSensingTraffic",
                              "BufferedTrafficSource", "TrafficModel",
                              "TrafficSource", "SaturatedTraffic",
                              "PoissonTraffic", "BurstyAlarmTraffic",
                              "MixedPopulation", "build_traffic_model"),
    "repro.network.channel_allocation": ("ChannelAllocator",),
    "repro.network.node": ("SensorNode",),
    "repro.network.scenario": ("DenseNetworkScenario", "ChannelScenario",
                               "SimulationSummary"),
    "repro.network.spec": ("ScenarioSpec", "CASE_STUDY_SPEC",
                           "adaptive_tx_levels"),
    "repro.network.simulate": ("ChannelSimTask", "simulate_channel",
                               "simulate_network", "aggregate_channel_rows"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
