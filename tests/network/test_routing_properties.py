"""Property tests of the sink-tree routing invariants.

Four contracts back the multi-hop layer's correctness story, checked here
over randomly drawn topologies rather than hand-picked grids:

* every node reaches the sink by following parents, in exactly ``depth``
  hops, whatever the placement, discipline or hop cap;
* gradient hop counts are *minimal* — they equal the BFS distance over the
  usable-link graph (the unreachable fallback lands at depth 1);
* forwarding multipliers conserve bytes — the multiplier sum equals the
  total hop count, because each node's traffic crosses ``depth`` links;
* trees are pure functions of ``(topology, model, seed)`` — a fresh
  interpreter derives the identical tree, which is what lets the event
  and batched kernels (and every fan-out worker) agree.

A relay's arrival schedule is checked against the scalar polling
reference in ``test_traffic.py`` (the ``test_schedule_*`` tests).
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.routing import GradientRouting, MinHopRouting, _bfs_depths
from repro.network.topology import (SINK_NODE_ID, NetworkTopology,
                                    uniform_disc_placement)

SRC = Path(__file__).resolve().parents[2] / "src"

placement_seeds = st.integers(min_value=0, max_value=2**32 - 1)
node_counts = st.integers(min_value=2, max_value=24)
hop_caps = st.integers(min_value=1, max_value=5)


def disc_network(placement_seed, count):
    placements = uniform_disc_placement(
        count, radius_m=60.0, rng=np.random.default_rng(placement_seed))
    return NetworkTopology.from_placements(placements, max_link_loss_db=78.0)


def build(network, discipline, max_hops, tie_seed=None):
    model = (GradientRouting(max_hops=max_hops) if discipline == "gradient"
             else MinHopRouting(max_hops=max_hops))
    rng = None if tie_seed is None else np.random.default_rng(tie_seed)
    return model.build_tree(network, rng=rng)


class TestSinkReachability:
    @settings(max_examples=60, deadline=None)
    @given(placement_seed=placement_seeds, count=node_counts,
           max_hops=hop_caps,
           discipline=st.sampled_from(["gradient", "min_hop"]),
           tie_seed=st.one_of(st.none(), st.integers(0, 2**31 - 1)))
    def test_every_node_reaches_the_sink_in_depth_hops(
            self, placement_seed, count, max_hops, discipline, tie_seed):
        network = disc_network(placement_seed, count)
        tree = build(network, discipline, max_hops, tie_seed)
        assert tree.node_ids == network.node_ids
        for node in tree.node_ids:
            hops, current = 0, node
            while current != SINK_NODE_ID:
                current = tree.parent[current]
                hops += 1
                assert hops <= count, "parent chain loops"
            assert hops == tree.depth[node]
            assert tree.depth[node] <= max_hops


class TestGradientHopMinimality:
    @settings(max_examples=60, deadline=None)
    @given(placement_seed=placement_seeds, count=node_counts)
    def test_uncapped_gradient_depths_equal_bfs_distances(
            self, placement_seed, count):
        network = disc_network(placement_seed, count)
        tree = build(network, "gradient", max_hops=count + 1)
        bfs = _bfs_depths(network)
        for node in tree.node_ids:
            assert tree.depth[node] == bfs.get(node, 1)


class TestSubtreeByteConservation:
    @settings(max_examples=60, deadline=None)
    @given(placement_seed=placement_seeds, count=node_counts,
           max_hops=hop_caps)
    def test_multiplier_sum_equals_total_hop_count(self, placement_seed,
                                                   count, max_hops):
        network = disc_network(placement_seed, count)
        tree = build(network, "gradient", max_hops)
        # A relay forwards one copy of every descendant's traffic, so the
        # carried loads sum to the total hop count.
        carried = {node: 1 + len(tree.descendants(node))
                   for node in tree.node_ids}
        assert sum(carried.values()) == sum(tree.depth.values())
        # Subtrees partition consistently: a relay carries itself plus
        # exactly its children's subtrees.
        for node in tree.node_ids:
            assert carried[node] == 1 + sum(
                carried[child] for child in tree.children(node))


class TestCrossProcessDeterminism:
    def test_fresh_interpreter_derives_the_identical_tree(self):
        code = (
            "import numpy as np; "
            "from repro.network.routing import MinHopRouting; "
            "from repro.network.topology import NetworkTopology, "
            "uniform_disc_placement; "
            "placements = uniform_disc_placement(20, radius_m=60.0, "
            "rng=np.random.default_rng(17)); "
            "network = NetworkTopology.from_placements(placements, "
            "max_link_loss_db=78.0); "
            "tree = MinHopRouting(max_hops=4).build_tree(network, "
            "rng=np.random.default_rng(42)); "
            "print(sorted(tree.parent.items()))"
        )
        runs = [subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env={"PYTHONPATH": str(SRC),
                              "PATH": "/usr/bin:/bin"})
            for _ in range(2)]
        for run in runs:
            assert run.returncode == 0, run.stderr
        assert runs[0].stdout == runs[1].stdout
        # And the in-process tree matches what the fresh interpreters saw.
        network = disc_network(17, 20)
        tree = build(network, "min_hop", 4, tie_seed=42)
        assert str(sorted(tree.parent.items())) == runs[0].stdout.strip()
