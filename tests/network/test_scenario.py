"""Tests of the dense-network scenario assembly and channel simulation."""

import math

import pytest

from repro.mac.superframe import SuperframeConfig
from repro.network.node import SensorNode
from repro.network.scenario import ChannelScenario, DenseNetworkScenario


class TestDenseNetworkScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return DenseNetworkScenario(seed=1)

    def test_population_and_channels(self, scenario):
        nodes = scenario.build_nodes()
        assert len(nodes) == 1600
        assert scenario.nodes_per_channel == 100
        channels = {node.channel for node in nodes}
        assert len(channels) == 16
        assert len(scenario.nodes_on_channel(11)) == 100

    def test_path_losses_within_bounds(self, scenario):
        nodes = scenario.build_nodes()
        losses = [node.path_loss_db for node in nodes]
        assert min(losses) >= 55.0
        assert max(losses) <= 95.0

    def test_build_nodes_is_cached(self, scenario):
        assert scenario.build_nodes() is scenario.build_nodes()

    def test_channel_load_matches_paper(self, scenario):
        assert scenario.channel_load() == pytest.approx(0.44, abs=0.02)

    def test_superframe_config(self, scenario):
        config = scenario.superframe_config()
        assert config.beacon_order == 6
        assert config.beacon_interval_s == pytest.approx(0.98304)

    def test_path_losses_cover_the_population(self, scenario):
        losses = [node.path_loss_db for node in scenario.build_nodes()]
        assert len(losses) == 1600
        assert 55.0 <= min(losses) and max(losses) <= 95.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DenseNetworkScenario(total_nodes=0)
        with pytest.raises(ValueError):
            DenseNetworkScenario(channels=[])

    def test_channel_scenario_requires_populated_channel(self):
        scenario = DenseNetworkScenario(total_nodes=4, channels=[11, 12], seed=3)
        with pytest.raises(ValueError):
            scenario.channel_scenario(channel=25)


class TestChannelScenario:
    def test_scaled_down_simulation_runs(self):
        scenario = DenseNetworkScenario(total_nodes=64, channels=[11, 12],
                                        beacon_order=3, seed=4)
        channel = scenario.channel_scenario(11, max_nodes=6, payload_bytes=60)
        summary = channel.run(superframes=4)
        assert summary.node_count == 6
        assert summary.packets_attempted > 0
        assert 0.0 <= summary.failure_probability <= 1.0
        assert summary.mean_node_power_w > 0.0
        assert "transmit" in summary.energy_by_phase_j

    def test_summary_counts_consistent(self):
        nodes = [SensorNode(node_id=i, channel=11, path_loss_db=65.0,
                            tx_power_dbm=0.0) for i in range(1, 5)]
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        summary = ChannelScenario(nodes, config, payload_bytes=80,
                                  seed=9).run(superframes=4)
        assert summary.packets_delivered <= summary.packets_attempted
        if summary.packets_attempted:
            assert summary.failure_probability == pytest.approx(
                1.0 - summary.packets_delivered / summary.packets_attempted)
        assert not math.isnan(summary.mean_delivery_delay_s)

    def test_empty_node_list_rejected(self):
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        with pytest.raises(ValueError):
            ChannelScenario([], config)

    def test_superframes_must_be_positive(self):
        nodes = [SensorNode(node_id=1, channel=11, path_loss_db=65.0)]
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        with pytest.raises(ValueError):
            ChannelScenario(nodes, config).run(superframes=0)

    def test_unassigned_tx_power_without_default_raises(self):
        """Regression: unassigned powers used to silently become 0 dBm."""
        nodes = [SensorNode(node_id=1, channel=11, path_loss_db=65.0)]
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        with pytest.raises(ValueError, match="transmit power"):
            ChannelScenario(nodes, config).run(superframes=2)

    def test_scenario_default_tx_power_applies_to_unassigned_nodes(self):
        nodes = [SensorNode(node_id=1, channel=11, path_loss_db=65.0),
                 SensorNode(node_id=2, channel=11, path_loss_db=80.0,
                            tx_power_dbm=-5.0)]
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        channel = ChannelScenario(nodes, config, default_tx_power_dbm=-10.0)
        assert channel.resolved_tx_levels_dbm() == [-10.0, -5.0]

    def test_dense_scenario_resolves_configured_tx_level(self):
        scenario = DenseNetworkScenario(total_nodes=16, channels=[11],
                                        beacon_order=3, seed=5,
                                        tx_power_dbm=-7.0)
        channel = scenario.channel_scenario(11, max_nodes=4)
        assert channel.resolved_tx_levels_dbm() == [-7.0] * 4
        summary = channel.run(superframes=2)
        assert summary.packets_attempted > 0

    def test_zero_delivery_channel_has_none_delay(self):
        """Regression: an all-out-of-range channel used to report NaN."""
        nodes = [SensorNode(node_id=i, channel=11, path_loss_db=130.0,
                            tx_power_dbm=0.0) for i in range(1, 4)]
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        summary = ChannelScenario(nodes, config, payload_bytes=60,
                                  seed=1).run(superframes=3)
        assert summary.packets_delivered == 0
        assert summary.mean_delivery_delay_s is None
        assert summary.failure_probability == 1.0


class TestRoutedScenario:
    def build(self, max_hops=2, total_nodes=24, channels=(11,), seed=5):
        from repro.network.routing import GradientRouting
        from repro.network.topology import GridTopologyModel

        return DenseNetworkScenario(
            total_nodes=total_nodes, channels=list(channels), seed=seed,
            topology_model=GridTopologyModel(),
            routing_model=GradientRouting(max_hops=max_hops))

    def test_geometric_scenario_exposes_network_and_tree(self):
        scenario = self.build()
        assert scenario.is_geometric
        tree = scenario.sink_tree(11)
        assert tree.node_ids == [n.node_id for n in scenario.nodes_on_channel(11)]
        assert len(tree.node_ids) == 24
        assert max(tree.depth.values()) == 2

    def test_node_losses_are_parent_link_losses(self):
        """Adaptive TX must close each node's parent link, not the sink
        link — that is where the per-hop energy benefit comes from."""
        scenario = self.build()
        tree = scenario.sink_tree(11)
        for node in scenario.build_nodes():
            assert node.path_loss_db == tree.link_loss_db[node.node_id]

    def test_star_scenario_has_no_tree(self):
        scenario = DenseNetworkScenario(total_nodes=8, channels=[11], seed=5)
        assert not scenario.is_geometric
        assert scenario.sink_tree(11) is None

    def test_channel_scenario_carries_the_tree(self):
        scenario = self.build()
        channel = scenario.channel_scenario(11)
        assert channel.tree == scenario.sink_tree(11)

    def test_channel_scenario_rejects_a_mismatched_tree(self):
        scenario = self.build()
        channel = scenario.channel_scenario(11)
        with pytest.raises(ValueError, match="must span exactly"):
            ChannelScenario(nodes=channel.nodes[:-1], config=channel.config,
                            payload_bytes=channel.payload_bytes,
                            seed=channel.seed, traffic=channel.traffic,
                            tree=channel.tree)

    def test_max_nodes_cannot_truncate_a_routed_channel(self):
        scenario = self.build()
        with pytest.raises(ValueError, match="truncate a routed channel"):
            scenario.channel_scenario(11, max_nodes=10)

    def test_geometric_channels_have_independent_layout_streams(self):
        """Two channels of one scenario draw from per-channel topology and
        routing streams: a disc layout differs across channels but is
        reproducible across builds."""
        from repro.network.routing import MinHopRouting
        from repro.network.topology import DiscTopologyModel

        def build():
            return DenseNetworkScenario(
                total_nodes=24, channels=[11, 12], seed=9,
                topology_model=DiscTopologyModel(),
                routing_model=MinHopRouting(max_hops=3))

        first, second = build(), build()
        for channel in (11, 12):
            assert first.sink_tree(channel) == second.sink_tree(channel)
        losses_11 = sorted(first.sink_tree(11).link_loss_db.values())
        losses_12 = sorted(first.sink_tree(12).link_loss_db.values())
        assert losses_11 != losses_12
