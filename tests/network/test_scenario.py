"""Tests of the spec's node population and of the event kernel's lane runs."""

import math
from collections import Counter

import pytest

from repro.mac.superframe import SuperframeConfig
from repro.mac.vectorized import BatchedChannelSimulator, ChannelLane
from repro.network.node import SensorNode
from repro.network.scenario import EventChannelSimulator
from repro.network.simulate import _channel_lanes, simulate_network
from repro.network.spec import ScenarioSpec

KERNELS = (EventChannelSimulator, BatchedChannelSimulator)


def lane_of(nodes, seed, level_dbm=0.0, tree=None):
    """One lane of ``nodes``, every node at ``level_dbm``."""
    return ChannelLane(nodes=nodes, tx_levels_dbm=[level_dbm] * len(nodes),
                       seed=seed, tree=tree)


class TestPopulation:
    @pytest.fixture(scope="class")
    def population(self):
        return ScenarioSpec().population(seed=1)

    def test_population_and_channels(self, population):
        assert list(population) == list(range(11, 27))
        assert sum(len(nodes) for nodes, _ in population.values()) == 1600
        for channel, (nodes, tree) in population.items():
            assert len(nodes) == 100
            assert tree is None
            assert {node.channel for node in nodes} == {channel}
            ids = [node.node_id for node in nodes]
            assert ids == sorted(ids)

    def test_path_losses_within_bounds(self, population):
        losses = [node.path_loss_db for nodes, _ in population.values()
                  for node in nodes]
        assert len(losses) == 1600
        assert 55.0 <= min(losses) and max(losses) <= 95.0

    def test_round_robin_wraps_channels(self):
        population = ScenarioSpec(total_nodes=4, num_channels=2) \
            .population(seed=3)
        assert {channel: [node.node_id for node in nodes]
                for channel, (nodes, _) in population.items()} == \
            {11: [1, 3], 12: [2, 4]}

    @pytest.mark.parametrize("nodes, channels", [(1, 16), (17, 16),
                                                 (100, 3), (1601, 16)])
    def test_every_node_dealt_within_one_of_balance(self, nodes, channels):
        population = ScenarioSpec(total_nodes=nodes, num_channels=channels) \
            .population(seed=0)
        ids = sorted(node.node_id for members, _ in population.values()
                     for node in members)
        assert ids == list(range(1, nodes + 1))
        sizes = Counter({channel: len(members)
                         for channel, (members, _) in population.items()})
        assert max(sizes.values()) - min(sizes.values()) <= 1

    def test_the_seed_draws_the_losses(self):
        spec = ScenarioSpec(total_nodes=32, num_channels=2)

        def losses(seed):
            return [node.path_loss_db for nodes, _
                    in spec.population(seed).values() for node in nodes]

        assert losses(4) == losses(4)
        assert losses(4) != losses(5)


class TestEventChannelSimulator:
    def test_scaled_down_simulation_runs(self):
        spec = ScenarioSpec(total_nodes=64, num_channels=2, beacon_order=3)
        nodes = spec.population(seed=4)[11][0][:6]
        summary, = EventChannelSimulator(
            [lane_of(nodes, seed=11)], spec.superframe_config(),
            payload_bytes=60).run(superframes=4)
        assert summary.node_count == 6
        assert summary.packets_attempted > 0
        assert 0.0 <= summary.failure_probability <= 1.0
        assert summary.mean_node_power_w > 0.0
        assert "transmit" in summary.energy_by_phase_j

    def test_summary_counts_consistent(self):
        nodes = [SensorNode(node_id=i, channel=11, path_loss_db=65.0)
                 for i in range(1, 5)]
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        summary, = EventChannelSimulator([lane_of(nodes, seed=9)], config,
                                         payload_bytes=80).run(superframes=4)
        assert summary.packets_delivered <= summary.packets_attempted
        if summary.packets_attempted:
            assert summary.failure_probability == pytest.approx(
                1.0 - summary.packets_delivered / summary.packets_attempted)
        assert not math.isnan(summary.mean_delivery_delay_s)

    def test_one_summary_per_lane_in_lane_order(self):
        nodes = [SensorNode(node_id=i, channel=11, path_loss_db=70.0)
                 for i in range(1, 4)]
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        lanes = [lane_of(nodes, seed=1), lane_of(nodes[:2], seed=2)]
        summaries = EventChannelSimulator(lanes, config).run(superframes=2)
        assert [summary.node_count for summary in summaries] == [3, 2]
        solo, = EventChannelSimulator(lanes[1:], config).run(superframes=2)
        assert summaries[1] == solo

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_empty_inputs_rejected(self, kernel):
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        with pytest.raises(ValueError, match="at least one lane"):
            kernel([], config)
        with pytest.raises(ValueError, match="at least one node"):
            kernel([lane_of([], seed=0)], config)

    def test_superframes_must_be_positive(self):
        nodes = [SensorNode(node_id=1, channel=11, path_loss_db=65.0)]
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        with pytest.raises(ValueError):
            EventChannelSimulator([lane_of(nodes, seed=0)], config) \
                .run(superframes=0)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_one_transmit_level_per_node_is_required(self, kernel):
        """Regression: unassigned powers used to silently become 0 dBm."""
        nodes = [SensorNode(node_id=i, channel=11, path_loss_db=65.0)
                 for i in (1, 2)]
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        lane = ChannelLane(nodes=nodes, tx_levels_dbm=[-5.0], seed=0)
        with pytest.raises(ValueError, match="transmit level"):
            kernel([lane], config)

    def test_fixed_policy_lanes_carry_the_configured_level(self):
        spec = ScenarioSpec(total_nodes=16, num_channels=1, beacon_order=3,
                            tx_policy="fixed", tx_power_dbm=-7.0)
        lanes, _ = _channel_lanes(spec, seed=5, max_nodes_per_channel=4,
                                  replications=1)
        assert lanes[0].tx_levels_dbm == [-7.0] * 4
        summary, = EventChannelSimulator(
            lanes, spec.superframe_config()).run(superframes=2)
        assert summary.packets_attempted > 0

    def test_zero_delivery_channel_has_none_delay(self):
        """Regression: an all-out-of-range channel used to report NaN."""
        nodes = [SensorNode(node_id=i, channel=11, path_loss_db=130.0)
                 for i in range(1, 4)]
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        summary, = EventChannelSimulator([lane_of(nodes, seed=1)], config,
                                         payload_bytes=60).run(superframes=3)
        assert summary.packets_delivered == 0
        assert summary.mean_delivery_delay_s is None
        assert summary.failure_probability == 1.0


class TestRoutedPopulation:
    @staticmethod
    def spec(max_hops=2, total_nodes=24, num_channels=1):
        from repro.network.routing import GradientRouting
        from repro.network.topology import GridTopologyModel

        return ScenarioSpec(total_nodes=total_nodes,
                            num_channels=num_channels,
                            topology=GridTopologyModel(),
                            routing=GradientRouting(max_hops=max_hops))

    def test_each_channel_tree_spans_its_channel(self):
        nodes, tree = self.spec().population(seed=5)[11]
        assert tree.node_ids == [node.node_id for node in nodes]
        assert len(tree.node_ids) == 24
        assert max(tree.depth.values()) == 2

    def test_node_losses_are_parent_link_losses(self):
        """Adaptive TX must close each node's parent link, not the sink
        link — that is where the per-hop energy benefit comes from."""
        nodes, tree = self.spec().population(seed=5)[11]
        for node in nodes:
            assert node.path_loss_db == tree.link_loss_db[node.node_id]

    def test_star_population_has_no_tree(self):
        population = ScenarioSpec(total_nodes=8, num_channels=1) \
            .population(seed=5)
        assert population[11][1] is None

    def test_lanes_carry_the_tree(self):
        spec = self.spec()
        lanes, _ = _channel_lanes(spec, seed=5, max_nodes_per_channel=None,
                                  replications=2)
        tree = spec.population(seed=5)[11][1]
        assert [lane.tree for lane in lanes] == [tree, tree]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_kernels_reject_a_mismatched_tree(self, kernel):
        spec = self.spec()
        nodes, tree = spec.population(seed=5)[11]
        with pytest.raises(ValueError, match="must span exactly"):
            kernel([lane_of(nodes[:-1], seed=1, tree=tree)],
                   spec.superframe_config())

    def test_max_nodes_cannot_truncate_a_routed_channel(self):
        with pytest.raises(ValueError, match="truncate a routed channel"):
            simulate_network(self.spec(), superframes=2, seed=5,
                             max_nodes_per_channel=10)

    def test_geometric_channels_have_independent_layout_streams(self):
        """Two channels of one population draw from per-channel topology
        and routing streams: a disc layout differs across channels but is
        reproducible across builds."""
        from repro.network.routing import MinHopRouting
        from repro.network.topology import DiscTopologyModel

        spec = ScenarioSpec(total_nodes=24, num_channels=2,
                            topology=DiscTopologyModel(),
                            routing=MinHopRouting(max_hops=3))
        first, second = spec.population(seed=9), spec.population(seed=9)
        for channel in (11, 12):
            assert first[channel] == second[channel]
        losses_11 = sorted(first[11][1].link_loss_db.values())
        losses_12 = sorted(first[12][1].link_loss_db.values())
        assert losses_11 != losses_12
