"""Unit tests of sink-tree routing and the forwarding-load layer."""

import pytest

from repro.network.routing import (
    ROUTING_KINDS,
    ForwardingSource,
    GradientRouting,
    MinHopRouting,
    SinkTree,
    build_routing_model,
    depth_breakdown,
    make_lane_sources,
)
from repro.network.topology import (
    SINK_NODE_ID,
    GridTopologyModel,
    NetworkTopology,
    grid_placement,
)
from repro.network.traffic import build_traffic_model, make_node_sources
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


class TestForwardingSource:
    def sources(self, rate_scale=1.0):
        model = build_traffic_model("periodic", payload_bytes=120,
                                    rate_scale=rate_scale)
        streams = RandomStreams(21)
        own, relayed = make_node_sources(model, [1, 2], streams)
        return own, relayed

    def test_payload_and_lag_validation(self):
        model = build_traffic_model("periodic", payload_bytes=120)
        other = build_traffic_model("periodic", payload_bytes=60)
        streams = RandomStreams(3)
        own = model.make_source(rng=streams.get("traffic[1]"))
        small = other.make_source(rng=streams.get("traffic[2]"))
        with pytest.raises(ValueError, match="payload"):
            ForwardingSource(own, [(small, 0.0)])
        good = model.make_source(rng=streams.get("traffic[3]"))
        with pytest.raises(ValueError, match="non-negative"):
            ForwardingSource(own, [(good, -1.0)])

    def test_deposits_and_buffers_are_sums(self):
        own, relayed = self.sources()
        wrapper = ForwardingSource(own, [(relayed, 0.0)])
        wrapper.advance_to(30.0)
        assert wrapper.bytes_deposited == \
            own.bytes_deposited + relayed.bytes_deposited
        assert wrapper.buffered_bytes == \
            own.buffered_bytes + relayed.buffered_bytes

    def test_conservation_composes_under_draining(self):
        own, relayed = self.sources()
        wrapper = ForwardingSource(own, [(relayed, 0.0)])
        drained = 0
        for step in range(1, 200):
            if wrapper.poll(step * 1.0):
                drained += wrapper.drain_packet()
        assert drained > 0
        assert wrapper.bytes_deposited == drained + wrapper.buffered_bytes
        # Each wrapper drain drained exactly one sub-source packet.
        assert wrapper.packets_drained == \
            own.packets_drained + relayed.packets_drained

    def test_own_traffic_drains_before_relayed(self):
        own, relayed = self.sources()
        wrapper = ForwardingSource(own, [(relayed, 0.0)])
        now = 1.0
        while not wrapper.poll(now):
            now += 1.0
        if own.packet_available():
            before = own.packets_drained
            wrapper.drain_packet()
            assert own.packets_drained == before + 1

    def test_lag_delays_the_relayed_feed(self):
        _, relayed_now = self.sources()
        own2, relayed_lagged = self.sources()
        lagged = ForwardingSource(own2, [(relayed_lagged, 15.0)])
        lagged.advance_to(30.0)
        relayed_now.advance_to(30.0)
        # The lagged replica only saw time 15.0 of its arrival process.
        assert relayed_lagged.bytes_deposited <= relayed_now.bytes_deposited
        relayed_now2 = self.sources()[1]
        relayed_now2.advance_to(15.0)
        assert relayed_lagged.bytes_deposited == relayed_now2.bytes_deposited

    def test_partial_buffers_do_not_pool_across_feeds(self):
        """Two half-full feeds must not look like one full packet."""
        own, relayed = self.sources()
        wrapper = ForwardingSource(own, [(relayed, 0.0)])
        now = 0.5
        while not wrapper.packet_available() and now < 300.0:
            wrapper.advance_to(now)
            assert wrapper.packet_available() == \
                (own.packet_available() or relayed.packet_available())
            now += 0.5


class TestMakeLaneSources:
    def streams(self, seed=9):
        return RandomStreams(seed)

    def test_without_a_tree_is_make_node_sources(self):
        model = build_traffic_model("periodic", payload_bytes=120)
        plain = make_node_sources(model, [1, 2, 3], self.streams())
        lane = make_lane_sources(model, [1, 2, 3], self.streams())
        for a, b in zip(plain, lane):
            a.advance_to(40.0)
            b.advance_to(40.0)
            assert a.bytes_deposited == b.bytes_deposited

    def test_relay_free_tree_returns_plain_sources(self):
        model = build_traffic_model("periodic", payload_bytes=120)
        tree = SinkTree(parent={1: 0, 2: 0}, depth={1: 1, 2: 1},
                        link_loss_db={1: 70.0, 2: 71.0})
        lane = make_lane_sources(model, [1, 2], self.streams(), tree=tree)
        assert not any(isinstance(s, ForwardingSource) for s in lane)

    def test_tree_must_span_the_lane(self):
        model = build_traffic_model("periodic", payload_bytes=120)
        tree = SinkTree(parent={1: 0, 2: 1}, depth={1: 1, 2: 2},
                        link_loss_db={1: 70.0, 2: 71.0})
        with pytest.raises(ValueError, match="span exactly"):
            make_lane_sources(model, [1, 2, 3], self.streams(), tree=tree)

    def test_relays_replay_their_descendants_streams(self):
        """The relay's replica deposits exactly the bytes the descendant's
        own (lag-shifted) source deposits — the replay contract."""
        model = build_traffic_model("periodic", payload_bytes=120)
        tree = SinkTree(parent={1: 0, 2: 1}, depth={1: 1, 2: 2},
                        link_loss_db={1: 70.0, 2: 71.0})
        lane = make_lane_sources(model, [1, 2], self.streams(), tree=tree,
                                 hop_lag_s=10.0)
        relay, leaf = lane
        assert isinstance(relay, ForwardingSource)
        assert not isinstance(leaf, ForwardingSource)
        relay.advance_to(50.0)
        leaf.advance_to(40.0)  # the replica lags one 10 s hop behind
        replica = relay.relayed[0][0]
        assert replica.bytes_deposited == leaf.bytes_deposited

    def test_non_relay_variates_are_untouched(self):
        """Wrapping relays must not perturb any node's own stream: the
        same master seed gives every node the same own-arrival process
        with and without the tree."""
        model = build_traffic_model("poisson", payload_bytes=120)
        tree = SinkTree(parent={1: 0, 2: 1, 3: 1}, depth={1: 1, 2: 2, 3: 2},
                        link_loss_db={1: 70.0, 2: 71.0, 3: 72.0})
        plain = make_node_sources(model, [1, 2, 3], self.streams())
        lane = make_lane_sources(model, [1, 2, 3], self.streams(), tree=tree)
        own_sources = [lane[0].own, lane[1], lane[2]]
        for a, b in zip(plain, own_sources):
            a.advance_to(60.0)
            b.advance_to(60.0)
            assert a.bytes_deposited == b.bytes_deposited
