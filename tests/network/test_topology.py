"""Unit tests of node placement, connectivity and the topology models."""

import math

import numpy as np
import pytest

from repro.network.geometry import deterministic_path_loss_db
from repro.network.topology import (
    TOPOLOGY_KINDS,
    ClusteredTopologyModel,
    DiscTopologyModel,
    GridTopologyModel,
    NetworkTopology,
    StarTopologyModel,
    build_topology_model,
    clustered_placement,
    grid_placement,
    uniform_disc_placement,
)


def distance(placement):
    """Distance of ``placement`` to the sink at the origin."""
    return math.hypot(placement.x_m, placement.y_m)


class TestUniformDiscPlacement:
    def test_count_and_ids(self, rng):
        placements = uniform_disc_placement(100, radius_m=50.0, rng=rng)
        assert len(placements) == 100
        assert [p.node_id for p in placements] == list(range(1, 101))

    def test_all_within_radius(self, rng):
        placements = uniform_disc_placement(500, radius_m=30.0, rng=rng)
        assert max(distance(p) for p in placements) <= 30.0

    def test_area_uniformity(self, rng):
        # For uniform-area placement, the median distance is radius/sqrt(2).
        placements = uniform_disc_placement(4000, radius_m=1.0, rng=rng)
        median = np.median([distance(p) for p in placements])
        assert median == pytest.approx(1.0 / math.sqrt(2.0), abs=0.03)

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            uniform_disc_placement(-1, 10.0, rng)
        with pytest.raises(ValueError):
            uniform_disc_placement(10, 0.0, rng)

    def test_custom_first_node_id(self, rng):
        placements = uniform_disc_placement(3, 10.0, rng, first_node_id=100)
        assert [p.node_id for p in placements] == [100, 101, 102]


class TestGridPlacement:
    def test_deterministic_no_rng(self):
        assert grid_placement(24, 12.0) == grid_placement(24, 12.0)

    def test_near_to_far_ordering(self):
        placements = grid_placement(24, 12.0)
        distances = [distance(p) for p in placements]
        assert distances == sorted(distances)
        # 12 m lattice: ring 1 holds 8 nodes (4 lateral at 12 m, 4 diagonal
        # at ~17 m), ring 2 the next 16.
        assert [p.node_id for p in placements] == list(range(1, 25))
        assert max(distances[:8]) == pytest.approx(12.0 * math.sqrt(2.0))
        assert min(distances[8:]) == pytest.approx(24.0)

    def test_block_grows_to_cover_the_count(self):
        placements = grid_placement(30, 5.0)
        assert len(placements) == 30
        assert len({(p.x_m, p.y_m) for p in placements}) == 30

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            grid_placement(-1, 12.0)
        with pytest.raises(ValueError):
            grid_placement(8, 0.0)


class TestClusteredPlacement:
    def test_count_ids_and_round_robin_sizes(self, rng):
        placements = clustered_placement(22, num_clusters=4,
                                         area_radius_m=60.0,
                                         cluster_radius_m=5.0, rng=rng)
        assert [p.node_id for p in placements] == list(range(1, 23))

    def test_members_cluster_around_their_heads(self, rng):
        placements = clustered_placement(400, num_clusters=4,
                                         area_radius_m=200.0,
                                         cluster_radius_m=2.0, rng=rng)
        # Round-robin assignment: members of one cluster share index % 4.
        for head in range(4):
            members = placements[head::4]
            xs = [p.x_m for p in members]
            ys = [p.y_m for p in members]
            spread = max(np.std(xs), np.std(ys))
            assert spread < 4.0  # ~2 m Gaussian, never the 200 m area

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            clustered_placement(-1, 4, 60.0, 8.0, rng)
        with pytest.raises(ValueError):
            clustered_placement(10, 0, 60.0, 8.0, rng)
        with pytest.raises(ValueError):
            clustered_placement(10, 4, 0.0, 8.0, rng)


class TestNetworkTopology:
    def topology(self, count=24):
        placements = grid_placement(count, 12.0)
        return NetworkTopology.from_placements(placements,
                                               max_link_loss_db=78.0)

    def test_sink_losses_match_the_deterministic_model(self):
        topology = self.topology()
        nearest = topology.placements[0]
        assert topology.sink_losses_db[nearest.node_id] == \
            deterministic_path_loss_db(None, distance(nearest))

    def test_link_losses_are_symmetric_and_sink_aware(self):
        topology = self.topology()
        assert topology.link_loss_db(1, 2) == topology.link_loss_db(2, 1)
        assert topology.link_loss_db(0, 3) == topology.sink_losses_db[3]
        with pytest.raises(ValueError):
            topology.link_loss_db(5, 5)

    def test_neighbors_respect_the_link_threshold(self):
        topology = self.topology()
        # Ring-1 nodes (<= 17 m) reach the sink directly; ring-2 nodes
        # (>= 24 m, ~82 dB+) do not.
        ring1 = [p.node_id for p in topology.placements[:8]]
        ring2 = [p.node_id for p in topology.placements[8:]]
        for node in ring1:
            assert 0 in topology.neighbors(node)
        for node in ring2:
            assert 0 not in topology.neighbors(node)
        # The sink's neighbour list is exactly ring 1.
        assert topology.neighbors(0) == sorted(ring1)

    def test_neighbors_ascending_with_sink_first(self):
        topology = self.topology()
        neighbours = topology.neighbors(1)
        assert neighbours[0] == 0
        assert neighbours[1:] == sorted(neighbours[1:])

    @pytest.mark.parametrize("kind", ["grid", "disc", "cluster"])
    def test_neighbors_match_a_per_node_scan(self, kind):
        """The neighbour lists are built once for the whole topology; each
        must equal a scan of that node's links against the threshold."""
        model = build_topology_model(kind)
        network = model.build_network(list(range(3, 203, 2)),
                                      rng=np.random.default_rng(8))
        limit = network.max_link_loss_db
        assert network.neighbors(0) == [
            n for n in network.node_ids
            if network.sink_losses_db[n] <= limit]
        for node in network.node_ids:
            expected = [0] if network.sink_losses_db[node] <= limit else []
            expected += [other for other in network.node_ids
                         if other != node
                         and network.link_loss_db(node, other) <= limit]
            assert network.neighbors(node) == expected

    def test_neighbors_of_a_topology_built_field_by_field(self):
        built = self.topology(count=12)
        direct = NetworkTopology(placements=list(built.placements),
                                 sink_losses_db=dict(built.sink_losses_db),
                                 link_losses_db=dict(reversed(
                                     list(built.link_losses_db.items()))),
                                 max_link_loss_db=built.max_link_loss_db)
        assert direct == built
        for node in [0] + built.node_ids:
            assert direct.neighbors(node) == built.neighbors(node)

    def test_neighbors_returns_a_copy(self):
        topology = self.topology()
        topology.neighbors(1).append(99)
        assert 99 not in topology.neighbors(1)


class TestTopologyModels:
    def test_build_topology_model_covers_every_kind(self):
        kinds = {build_topology_model(name).kind for name in TOPOLOGY_KINDS}
        assert kinds == set(TOPOLOGY_KINDS)
        with pytest.raises(ValueError, match="Unknown topology"):
            build_topology_model("torus")

    def test_star_model_is_non_geometric(self):
        model = StarTopologyModel()
        assert not model.geometric
        with pytest.raises(TypeError, match="no geometry"):
            model.place(10)

    def test_geometric_flags_and_kinds(self):
        assert GridTopologyModel().geometric
        assert DiscTopologyModel().geometric
        assert ClusteredTopologyModel().geometric
        assert build_topology_model("grid", spacing_m=7.0).spacing_m == 7.0
        assert build_topology_model("disc", radius_m=30.0).radius_m == 30.0
        cluster = build_topology_model("cluster", radius_m=30.0,
                                       num_clusters=3, cluster_radius_m=2.0)
        assert (cluster.num_clusters, cluster.area_radius_m,
                cluster.cluster_radius_m) == (3, 30.0, 2.0)

    def test_models_are_hashable_and_validated(self, rng):
        assert hash(GridTopologyModel()) == hash(GridTopologyModel())
        with pytest.raises(ValueError):
            GridTopologyModel(spacing_m=0.0)
        with pytest.raises(ValueError):
            DiscTopologyModel(radius_m=-1.0)
        with pytest.raises(ValueError):
            ClusteredTopologyModel(num_clusters=0)
        with pytest.raises(ValueError, match="random generator"):
            DiscTopologyModel().place(5)
        with pytest.raises(ValueError, match="random generator"):
            ClusteredTopologyModel().place(5)

    def test_build_network_rekeys_onto_the_given_ids(self):
        """Channel populations are round-robin id sets; the layout must
        depend only on the count, with positions assigned in id order."""
        model = GridTopologyModel()
        scattered = model.build_network([3, 7, 19, 35])
        contiguous = model.build_network([1, 2, 3, 4])
        assert scattered.node_ids == [3, 7, 19, 35]
        for sparse_id, dense_id in zip([3, 7, 19, 35], [1, 2, 3, 4]):
            assert scattered.sink_losses_db[sparse_id] == \
                contiguous.sink_losses_db[dense_id]

    def test_disc_model_uses_the_rng(self, rng):
        model = DiscTopologyModel(radius_m=40.0)
        network = model.build_network([1, 2, 3], rng=rng)
        assert len(network.node_ids) == 3
        assert all(distance(p) <= 40.0 for p in network.placements)
