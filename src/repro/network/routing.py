"""NET layer: deterministic sink-tree routing and per-hop forwarding load.

The paper's cluster is a 1-hop star, so its 211 µW figure never includes
relay traffic.  This module adds the NET layer above the MAC: given a
:class:`repro.network.topology.NetworkTopology` (placements + usable-link
graph), a routing model builds a :class:`SinkTree` — every node's parent on
its path to the sink — and the tree turns into *forwarding load*: a relay's
offered traffic is its own packet process plus a replayed copy of every
descendant's process, lagged by the hops between them.
:func:`lane_arrivals` adds those schedules up; it is where both MAC
kernels read a lane's traffic.

Two routing disciplines ship:

* :class:`GradientRouting` — cost-gradient parent selection: each node
  joins the depth-minimal neighbour whose cumulative link loss to the sink
  is smallest (ties broken by node id).  Fully deterministic; hop counts
  are minimal by construction.
* :class:`MinHopRouting` — classic hop-count routing with *seeded*
  tie-breaking among equal-depth parents, so different seeds explore
  different minimal trees while any one seed is reproducible across
  processes.

Determinism contract: trees are pure functions of ``(topology, model,
seed)``.  Link losses are the deterministic (median) evaluations of
:mod:`repro.network.geometry`, BFS visits nodes in sorted order, and the
only randomness — min-hop tie-breaking — draws from a dedicated stream, so
the event and batched kernels, and every worker process of the channel
fan-out, derive bit-identical trees.

Layering: this module sits above topology and traffic and below the
scenario layer.  It imports :mod:`repro.network.topology`,
:mod:`repro.network.traffic` and :mod:`repro.sim.random` — never
``repro.runner``, ``repro.sweep`` or ``repro.api`` (enforced by the CI
layering check).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.constants import ROUTING_KINDS
from repro.network.topology import SINK_NODE_ID, NetworkTopology
from repro.network.traffic import TrafficModel


# ---------------------------------------------------------------------------
# sink tree
# ---------------------------------------------------------------------------

@dataclass
class SinkTree:
    """Per-node parent/depth tables of one channel's routing tree.

    The sink is node id 0 at depth 0; every device has exactly one parent
    (another device, or the sink) at depth one less than its own, so
    following parents always reaches the sink — the paper's every-node-
    reachable assumption, preserved by construction.

    Attributes
    ----------
    parent:
        Device id -> parent id (``SINK_NODE_ID`` for first-hop nodes).
    depth:
        Device id -> hop count to the sink (>= 1).
    link_loss_db:
        Device id -> median loss of the node's *parent* link — the loss
        channel-inversion TX adaptation must close, replacing the star's
        node-to-sink loss.
    """

    parent: Dict[int, int]
    depth: Dict[int, int]
    link_loss_db: Dict[int, float]
    _children: Optional[Dict[int, List[int]]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        for node_id, parent_id in self.parent.items():
            if node_id == SINK_NODE_ID:
                raise ValueError("The sink has no parent entry")
            expected = self.depth.get(parent_id, 0) \
                if parent_id != SINK_NODE_ID else 0
            if self.depth[node_id] != expected + 1:
                raise ValueError(
                    f"Inconsistent tree: node {node_id} at depth "
                    f"{self.depth[node_id]} under parent {parent_id} at "
                    f"depth {expected}")

    # -- queries -------------------------------------------------------------------
    @property
    def node_ids(self) -> List[int]:
        """All device identifiers, ascending (the sink excluded)."""
        return sorted(self.parent)

    def _children_map(self) -> Dict[int, List[int]]:
        if self._children is None:
            children: Dict[int, List[int]] = {}
            for node_id in sorted(self.parent):
                children.setdefault(self.parent[node_id], []).append(node_id)
            self._children = children
        return self._children

    def children(self, node_id: int) -> List[int]:
        """Direct children of ``node_id`` (the sink's are first-hop nodes)."""
        return list(self._children_map().get(node_id, []))

    def descendants(self, node_id: int) -> List[int]:
        """Every node whose sink path passes through ``node_id``, ascending."""
        result: List[int] = []
        stack = self.children(node_id)
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(self.children(current))
        return sorted(result)

    @property
    def relays(self) -> List[int]:
        """Devices forwarding at least one other node's traffic."""
        return sorted(n for n in self.parent if self.children(n))


def depth_breakdown(tree: SinkTree, node_ids: Sequence[int],
                    packets_attempted: Sequence[int],
                    packets_delivered: Sequence[int],
                    delay_sums_s: Sequence[float],
                    energy_j: Sequence[float],
                    active_time_s: Sequence[float]) -> Dict[int, Dict]:
    """Per-hop-depth aggregation of node-level simulation outcomes.

    The energy hole becomes directly measurable: depth-1 buckets hold the
    relays closest to the sink, and their ``mean_power_uw`` rises above the
    deeper (leaf-heavy) buckets as forwarding load concentrates on them.
    All per-node inputs are aligned with ``node_ids``; both kernels (event
    and batched) funnel through this one function so the breakdowns are
    comparable across backends.
    """
    buckets: Dict[int, Dict] = {}
    for i, node_id in enumerate(node_ids):
        bucket = buckets.setdefault(tree.depth[node_id], {
            "nodes": 0, "packets_attempted": 0, "packets_delivered": 0,
            "_delay_sum_s": 0.0, "_power_sum_w": 0.0})
        bucket["nodes"] += 1
        bucket["packets_attempted"] += int(packets_attempted[i])
        bucket["packets_delivered"] += int(packets_delivered[i])
        bucket["_delay_sum_s"] += float(delay_sums_s[i])
        bucket["_power_sum_w"] += float(energy_j[i]) \
            / max(float(active_time_s[i]), 1e-12)
    result: Dict[int, Dict] = {}
    for hop_depth in sorted(buckets):
        bucket = buckets[hop_depth]
        delivered = bucket["packets_delivered"]
        result[hop_depth] = {
            "nodes": bucket["nodes"],
            "packets_attempted": bucket["packets_attempted"],
            "packets_delivered": delivered,
            "mean_power_uw": 1e6 * bucket["_power_sum_w"] / bucket["nodes"],
            "mean_delivery_delay_s":
                bucket["_delay_sum_s"] / delivered if delivered else None,
        }
    return result


# ---------------------------------------------------------------------------
# routing models (frozen, picklable configuration)
# ---------------------------------------------------------------------------

def _bfs_depths(network: NetworkTopology) -> Dict[int, int]:
    """Minimal hop counts over the usable-link graph (sorted-order BFS).

    Nodes the graph cannot reach are *absent* from the result; callers
    attach them directly to the sink (the paper's every-node-reachable
    assumption — their link simply exceeds the nominal threshold).
    """
    depth: Dict[int, int] = {}
    frontier = sorted(n for n in network.node_ids
                      if network.sink_losses_db[n] <= network.max_link_loss_db)
    for node_id in frontier:
        depth[node_id] = 1
    while frontier:
        next_frontier: List[int] = []
        for node_id in frontier:
            for neighbor in network.neighbors(node_id):
                if neighbor != SINK_NODE_ID and neighbor not in depth:
                    depth[neighbor] = depth[node_id] + 1
                    next_frontier.append(neighbor)
        frontier = sorted(next_frontier)
    return depth


def _truncate_to_max_hops(network: NetworkTopology, parent: Dict[int, int],
                          depth: Dict[int, int], max_hops: int) -> None:
    """Re-parent nodes deeper than ``max_hops`` onto shallower ancestors.

    A node at BFS depth ``d > max_hops`` keeps its sink path but skips
    straight to its ancestor at depth ``max_hops - 1``, landing at depth
    ``max_hops`` exactly.  The skipping link may exceed the nominal
    ``max_link_loss_db`` — that is the physical price of capping latency,
    and channel-inversion adaptation raises the TX level to close it.
    """
    original_parent = dict(parent)
    original_depth = dict(depth)
    for node_id in sorted(parent):
        if original_depth[node_id] <= max_hops:
            continue
        ancestor = node_id
        while original_depth.get(ancestor, 0) > max_hops - 1:
            ancestor = original_parent[ancestor]
            if ancestor == SINK_NODE_ID:
                break
        parent[node_id] = ancestor
        depth[node_id] = max_hops


def _finish_tree(network: NetworkTopology, parent: Dict[int, int],
                 depth: Dict[int, int], max_hops: int) -> SinkTree:
    """Apply the hop cap and materialise parent-link losses."""
    if max_hops == 1:
        parent = {n: SINK_NODE_ID for n in parent}
        depth = {n: 1 for n in depth}
    else:
        _truncate_to_max_hops(network, parent, depth, max_hops)
    link_losses = {n: network.link_loss_db(n, parent[n])
                   for n in parent}
    return SinkTree(parent=parent, depth=depth, link_loss_db=link_losses)


class RoutingModel(abc.ABC):
    """Declarative description of one channel's sink-tree discipline.

    Implementations are frozen dataclasses — hashable, picklable, directly
    embeddable in :class:`repro.network.spec.ScenarioSpec` — and carry a
    ``kind`` tag matching :data:`ROUTING_KINDS`.
    """

    kind: str = "abstract"
    max_hops: int = 1

    @abc.abstractmethod
    def build_tree(self, network: NetworkTopology,
                   rng: Optional[np.random.Generator] = None) -> SinkTree:
        """The sink tree this discipline derives from ``network``.

        ``rng`` feeds tie-breaking only; disciplines without randomness
        ignore it, and ``None`` always falls back to the lowest-id choice.
        """

    def _unreachable_fallback(self, network: NetworkTopology,
                              depth: Dict[int, int],
                              parent: Dict[int, int]) -> None:
        """Attach graph-unreachable nodes straight to the sink (depth 1)."""
        for node_id in network.node_ids:
            if node_id not in depth:
                depth[node_id] = 1
                parent[node_id] = SINK_NODE_ID


@dataclass(frozen=True)
class GradientRouting(RoutingModel):
    """Cost-gradient sink trees: minimal hops, then minimal cumulative loss.

    Nodes join, among their depth-minimal neighbours, the parent whose
    cumulative link loss to the sink is smallest (node id breaks exact
    float ties).  No randomness is consumed — the tree is a pure function
    of the topology — and hop counts equal the BFS distance, i.e. they are
    minimal over the usable-link graph.
    """

    max_hops: int = 4

    kind = "gradient"

    def __post_init__(self):
        if self.max_hops < 1:
            raise ValueError("max_hops must be at least 1")

    def build_tree(self, network: NetworkTopology,
                   rng: Optional[np.random.Generator] = None) -> SinkTree:
        depth = _bfs_depths(network)
        parent: Dict[int, int] = {}
        cost: Dict[int, float] = {SINK_NODE_ID: 0.0}
        for node_id in sorted(depth, key=lambda n: (depth[n], n)):
            if depth[node_id] == 1:
                candidates = [SINK_NODE_ID]
            else:
                candidates = [nb for nb in network.neighbors(node_id)
                              if nb != SINK_NODE_ID
                              and depth.get(nb) == depth[node_id] - 1]
            best = min(candidates,
                       key=lambda cand: (cost[cand]
                                         + network.link_loss_db(node_id, cand),
                                         cand))
            parent[node_id] = best
            cost[node_id] = cost[best] + network.link_loss_db(node_id, best)
        self._unreachable_fallback(network, depth, parent)
        return _finish_tree(network, parent, depth, self.max_hops)


@dataclass(frozen=True)
class MinHopRouting(RoutingModel):
    """Hop-count sink trees with seeded tie-breaking among equal parents.

    Every minimal-depth neighbour is an equally good parent; the seeded
    uniform choice spreads children across them (load balancing the
    energy hole), reproducibly for a given seed.
    """

    max_hops: int = 4

    kind = "min_hop"

    def __post_init__(self):
        if self.max_hops < 1:
            raise ValueError("max_hops must be at least 1")

    def build_tree(self, network: NetworkTopology,
                   rng: Optional[np.random.Generator] = None) -> SinkTree:
        depth = _bfs_depths(network)
        parent: Dict[int, int] = {}
        for node_id in sorted(depth, key=lambda n: (depth[n], n)):
            if depth[node_id] == 1:
                candidates = [SINK_NODE_ID]
            else:
                candidates = sorted(nb for nb in network.neighbors(node_id)
                                    if nb != SINK_NODE_ID
                                    and depth.get(nb) == depth[node_id] - 1)
            if rng is None or len(candidates) == 1:
                parent[node_id] = candidates[0]
            else:
                parent[node_id] = candidates[int(rng.integers(len(candidates)))]
        self._unreachable_fallback(network, depth, parent)
        return _finish_tree(network, parent, depth, self.max_hops)


def build_routing_model(name: str, max_hops: int = 4) -> RoutingModel:
    """Build a registered routing model from flat experiment parameters.

    Parameters
    ----------
    name:
        One of :data:`ROUTING_KINDS`.
    max_hops:
        Hop-depth cap of the tree (1 collapses any topology to a star).
    """
    if name not in ROUTING_KINDS:
        raise ValueError(f"Unknown routing {name!r}; choose one of "
                         f"{', '.join(ROUTING_KINDS)}")
    if name == "gradient":
        return GradientRouting(max_hops=max_hops)
    return MinHopRouting(max_hops=max_hops)


# ---------------------------------------------------------------------------
# forwarding load: one lane's arrival schedule
# ---------------------------------------------------------------------------

def lane_arrivals(model: TrafficModel, node_ids: Sequence[int], streams,
                  times_s: np.ndarray, tree: Optional[SinkTree] = None,
                  hop_lag_s: float = 0.0) -> np.ndarray:
    """Packets each node of one lane gains at each beacon of ``times_s``.

    Row ``i`` belongs to ``node_ids[i]``, which runs the model it resolves
    to by its position (the positional contract of
    :class:`repro.network.traffic.MixedPopulation`) and draws from its
    ``traffic[<id>]`` stream of ``streams``
    (:class:`repro.sim.random.RandomStreams`).  A relay of ``tree`` (which
    must span exactly ``node_ids``) also forwards a replica of every
    descendant's process — the descendant's stream replayed from variate
    zero (:meth:`repro.sim.random.RandomStreams.replica`), so its own
    stream does not move — lagged ``hops-between × hop_lag_s`` (one beacon
    interval per store-and-forward hop).  Each process keeps its own
    whole packets, so the relay has a packet to send iff their summed
    backlog is not empty.

    Entry ``[i, k]`` is what node ``i`` gains at ``times_s[k]``; a kernel
    adds it to the node's backlog and sends one packet whenever the
    backlog is not empty.
    """
    times_s = np.asarray(times_s, dtype=float)
    population = len(node_ids)
    index_of = {node_id: i for i, node_id in enumerate(node_ids)}
    counts = np.empty((population, times_s.size), dtype=np.int64)
    for i, node_id in enumerate(node_ids):
        counts[i] = model.resolve(i, population).packet_counts(
            times_s, streams.get(f"traffic[{node_id}]"))
        if tree is None:
            continue
        for descendant in tree.descendants(node_id):
            lag_s = (tree.depth[descendant] - tree.depth[node_id]) * hop_lag_s
            counts[i] += model.resolve(
                index_of[descendant], population).packet_counts(
                    np.maximum(0.0, times_s - lag_s),
                    streams.replica(f"traffic[{descendant}]"))
    counts[:, 1:] = np.diff(counts, axis=1)
    return counts
