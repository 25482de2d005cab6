"""Unit tests of sink-tree routing and the forwarding-load layer."""

import numpy as np
import pytest

from repro.network.routing import (
    ROUTING_KINDS,
    GradientRouting,
    MinHopRouting,
    SinkTree,
    build_routing_model,
    depth_breakdown,
    lane_arrivals,
)
from repro.network.topology import (
    SINK_NODE_ID,
    GridTopologyModel,
    NetworkTopology,
    grid_placement,
)
from repro.network.traffic import build_traffic_model
from repro.sim.random import RandomStreams


def at_depth(tree, hop_depth):
    """Devices exactly ``hop_depth`` hops from the sink, ascending."""
    return sorted(n for n, d in tree.depth.items() if d == hop_depth)


def grid_network(count=24):
    return NetworkTopology.from_placements(grid_placement(count, 12.0),
                                           max_link_loss_db=78.0)


class TestSinkTree:
    def chain(self):
        # 1 -> sink, 2 -> 1, 3 -> 2 plus a depth-1 leaf 4.
        return SinkTree(parent={1: 0, 2: 1, 3: 2, 4: 0},
                        depth={1: 1, 2: 2, 3: 3, 4: 1},
                        link_loss_db={1: 70.0, 2: 71.0, 3: 72.0, 4: 73.0})

    def test_validates_parent_depth_consistency(self):
        with pytest.raises(ValueError, match="Inconsistent tree"):
            SinkTree(parent={1: 0, 2: 1}, depth={1: 1, 2: 3},
                     link_loss_db={1: 70.0, 2: 71.0})
        with pytest.raises(ValueError, match="sink has no parent"):
            SinkTree(parent={0: 1, 1: 0}, depth={0: 2, 1: 1},
                     link_loss_db={0: 70.0, 1: 70.0})

    def test_structure_queries(self):
        tree = self.chain()
        assert tree.node_ids == [1, 2, 3, 4]
        assert max(tree.depth.values()) == 3
        assert tree.children(SINK_NODE_ID) == [1, 4]
        assert tree.children(1) == [2]
        assert tree.descendants(1) == [2, 3]
        assert tree.relays == [1, 2]

    def test_single_hop_tree_is_not_multihop(self):
        tree = SinkTree(parent={1: 0, 2: 0}, depth={1: 1, 2: 1},
                        link_loss_db={1: 70.0, 2: 71.0})
        assert max(tree.depth.values()) == 1
        assert tree.relays == []


class TestRoutingModels:
    def test_build_routing_model(self):
        assert build_routing_model("gradient", max_hops=2) == \
            GradientRouting(max_hops=2)
        assert build_routing_model("min_hop", max_hops=3) == \
            MinHopRouting(max_hops=3)
        with pytest.raises(ValueError, match="Unknown routing"):
            build_routing_model("flooding")
        for kind in ROUTING_KINDS:
            assert build_routing_model(kind).kind == kind

    def test_max_hops_validated(self):
        with pytest.raises(ValueError):
            GradientRouting(max_hops=0)
        with pytest.raises(ValueError):
            MinHopRouting(max_hops=-1)

    def test_gradient_tree_on_the_grid(self):
        """24-node 12 m grid: ring 1 (8 nodes) at depth 1, ring 2 (16
        nodes) at depth 2, every ring-2 parent a ring-1 node."""
        tree = GradientRouting(max_hops=4).build_tree(grid_network())
        assert at_depth(tree, 1) == list(range(1, 9))
        assert at_depth(tree, 2) == list(range(9, 25))
        assert max(tree.depth.values()) == 2
        for node in at_depth(tree, 2):
            assert tree.parent[node] in range(1, 9)

    def test_gradient_is_deterministic_and_ignores_the_rng(self):
        import numpy as np

        network = grid_network()
        model = GradientRouting(max_hops=3)
        without = model.build_tree(network)
        with_rng = model.build_tree(network, rng=np.random.default_rng(5))
        assert without == with_rng

    def test_min_hop_seeded_tie_break_is_reproducible(self):
        import numpy as np

        network = grid_network(32)
        model = MinHopRouting(max_hops=4)
        one = model.build_tree(network, rng=np.random.default_rng(11))
        two = model.build_tree(network, rng=np.random.default_rng(11))
        other = model.build_tree(network, rng=np.random.default_rng(12))
        assert one == two
        assert one.depth == other.depth  # hop counts are seed-independent
        assert one != other  # but at least one tie lands elsewhere

    def test_min_hop_without_rng_picks_the_lowest_id(self):
        network = grid_network()
        tree = MinHopRouting(max_hops=4).build_tree(network, rng=None)
        for node in at_depth(tree, 2):
            candidates = [nb for nb in network.neighbors(node)
                          if nb != SINK_NODE_ID and tree.depth.get(nb) == 1]
            assert tree.parent[node] == min(candidates)

    def test_max_hops_1_collapses_to_a_star(self):
        network = grid_network()
        tree = GradientRouting(max_hops=1).build_tree(network)
        assert set(tree.parent.values()) == {SINK_NODE_ID}
        assert max(tree.depth.values()) == 1
        assert tree.relays == []
        # Parent-link losses become the direct sink losses.
        for node in tree.node_ids:
            assert tree.link_loss_db[node] == network.sink_losses_db[node]

    def test_truncation_reparents_onto_the_original_chain(self):
        """Capping at 2 hops must hand depth-3 nodes to their *original*
        depth-1 ancestor, keeping subtree membership stable."""
        network = NetworkTopology.from_placements(grid_placement(32, 12.0),
                                                  max_link_loss_db=78.0)
        full = GradientRouting(max_hops=4).build_tree(network)
        assert max(full.depth.values()) == 3
        capped = GradientRouting(max_hops=2).build_tree(network)
        assert max(capped.depth.values()) == 2
        for node in at_depth(full, 3):
            grandparent = full.parent[full.parent[node]]
            assert capped.parent[node] == grandparent
            assert capped.depth[node] == 2
        # Depth-1 and depth-2 nodes are untouched by the cap.
        for node in full.node_ids:
            if full.depth[node] <= 2:
                assert capped.parent[node] == full.parent[node]

    def test_parent_link_losses_come_from_the_topology(self):
        network = grid_network()
        tree = GradientRouting(max_hops=4).build_tree(network)
        for node in tree.node_ids:
            assert tree.link_loss_db[node] == \
                network.link_loss_db(node, tree.parent[node])

    def test_unreachable_nodes_fall_back_to_the_sink(self):
        """Nodes the usable-link graph cannot reach attach directly to the
        sink — the paper's every-node-reachable assumption."""
        # A 60 dB threshold (~4.6 m) disconnects the whole 12 m grid.
        network = NetworkTopology.from_placements(grid_placement(8, 12.0),
                                                  max_link_loss_db=60.0)
        tree = GradientRouting(max_hops=4).build_tree(network)
        assert set(tree.parent.values()) == {SINK_NODE_ID}
        assert max(tree.depth.values()) == 1


class TestDepthBreakdown:
    def test_buckets_aggregate_per_depth(self):
        tree = SinkTree(parent={1: 0, 2: 0, 3: 1},
                        depth={1: 1, 2: 1, 3: 2},
                        link_loss_db={1: 70.0, 2: 71.0, 3: 72.0})
        breakdown = depth_breakdown(
            tree, [1, 2, 3],
            packets_attempted=[4, 6, 5],
            packets_delivered=[4, 5, 0],
            delay_sums_s=[0.4, 0.6, 0.0],
            energy_j=[2.0, 4.0, 1.0],
            active_time_s=[10.0, 10.0, 10.0])
        assert sorted(breakdown) == [1, 2]
        hop1 = breakdown[1]
        assert hop1["nodes"] == 2
        assert hop1["packets_attempted"] == 10
        assert hop1["packets_delivered"] == 9
        # Mean over nodes of per-node power: (0.2 + 0.4) / 2 W.
        assert hop1["mean_power_uw"] == pytest.approx(0.3e6)
        assert hop1["mean_delivery_delay_s"] == pytest.approx(1.0 / 9.0)
        hop2 = breakdown[2]
        assert hop2["packets_delivered"] == 0
        assert hop2["mean_delivery_delay_s"] is None


class TestLaneArrivals:
    """One lane's schedule: each node's own process, plus a lagged replica
    of every descendant's process at a relay."""

    TIMES = np.arange(40) * 1.0

    @staticmethod
    def own_gains(model, node_id, seed, times):
        """A node's own schedule as per-beacon gains."""
        rng = RandomStreams(seed).get(f"traffic[{node_id}]")
        return np.diff(model.packet_counts(times, rng), prepend=0)

    KINDS = ("saturated", "periodic", "poisson", "bursty")

    @pytest.mark.parametrize("kind", KINDS)
    def test_star_rows_are_each_nodes_own_schedule(self, kind):
        model = build_traffic_model(kind, payload_bytes=120, rate_scale=4.0)
        gains = lane_arrivals(model, [1, 2, 3], RandomStreams(9), self.TIMES)
        for row, node_id in zip(gains, [1, 2, 3]):
            assert row.tolist() == \
                self.own_gains(model, node_id, 9, self.TIMES).tolist()

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_relay_free_tree_is_the_star(self, kind):
        model = build_traffic_model(kind, payload_bytes=120, rate_scale=8.0)
        tree = SinkTree(parent={1: 0, 2: 0}, depth={1: 1, 2: 1},
                        link_loss_db={1: 70.0, 2: 71.0})
        star = lane_arrivals(model, [1, 2], RandomStreams(9), self.TIMES)
        routed = lane_arrivals(model, [1, 2], RandomStreams(9), self.TIMES,
                               tree=tree, hop_lag_s=10.0)
        assert routed.tolist() == star.tolist()

    @pytest.mark.parametrize("kind", KINDS)
    def test_relays_add_their_descendants_lagged_schedules(self, kind):
        """A relay gains its own packets plus each descendant's, replayed
        from the descendant's stream ``hops-between x hop_lag_s`` late;
        leaves and the descendants' own rows keep their variates."""
        model = build_traffic_model(kind, payload_bytes=120, rate_scale=4.0)
        tree = SinkTree(parent={1: 0, 2: 1, 3: 2}, depth={1: 1, 2: 2, 3: 3},
                        link_loss_db={1: 70.0, 2: 71.0, 3: 72.0})
        routed = lane_arrivals(model, [1, 2, 3], RandomStreams(9),
                               self.TIMES, tree=tree, hop_lag_s=10.0)
        star = lane_arrivals(model, [1, 2, 3], RandomStreams(9), self.TIMES)

        def lagged(node_id, lag_s):
            return self.own_gains(model, node_id, 9,
                                  np.maximum(0.0, self.TIMES - lag_s))

        assert routed[2].tolist() == star[2].tolist()
        assert routed[1].tolist() == (star[1] + lagged(3, 10.0)).tolist()
        assert routed[0].tolist() == (star[0] + lagged(2, 10.0)
                                      + lagged(3, 20.0)).tolist()
        # a lag delays the forwarded packets: nothing arrives from node 3
        # at relay 1 before its 20 s lag, whatever node 3 itself gained
        if kind != "saturated":
            assert lagged(3, 20.0)[1:21].sum() == 0

    def test_partial_payloads_never_pool_across_feeds(self):
        """Each process keeps its own whole packets: a relay whose own
        feed and unlagged replica are both half a payload along holds no
        packet from them.  Packets complete every second beacon."""
        model = build_traffic_model("periodic", payload_bytes=120,
                                    sampling_interval_s=2.0 / 120)
        tree = SinkTree(parent={1: 0, 2: 1}, depth={1: 1, 2: 2},
                        link_loss_db={1: 70.0, 2: 71.0})
        relay, leaf = lane_arrivals(model, [1, 2], RandomStreams(9),
                                    np.arange(6) * 1.0, tree=tree)
        assert leaf.tolist() == [1, 0, 1, 0, 1, 0]
        assert relay.tolist() == [2, 0, 2, 0, 2, 0]

    def test_mixed_descendants_run_their_own_component(self):
        """A replica runs the model its descendant resolves to by
        position, not the relay's."""
        model = build_traffic_model("mixed", payload_bytes=120,
                                    mix_fraction=0.5, rate_scale=4.0)
        tree = SinkTree(parent={1: 0, 2: 1}, depth={1: 1, 2: 2},
                        link_loss_db={1: 70.0, 2: 71.0})
        routed = lane_arrivals(model, [1, 2], RandomStreams(9), self.TIMES,
                               tree=tree)
        periodic, bursty = (model.resolve(i, 2) for i in range(2))
        assert (periodic.kind, bursty.kind) == ("periodic", "bursty")
        assert routed[0].tolist() == (
            self.own_gains(periodic, 1, 9, self.TIMES)
            + self.own_gains(bursty, 2, 9, self.TIMES)).tolist()
