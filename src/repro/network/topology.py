"""Node placement, connectivity and topology models of the sensor network.

The case study places 1600 nodes uniformly in a circular area around the
base station.  The paper then abstracts geometry away by assuming the path
losses are uniformly distributed between 55 and 95 dB; both views are
supported: geometric placement plus a path-loss model, or direct path-loss
assignment from a distribution.

Two levels of description live here:

* placement helpers (:func:`uniform_disc_placement`,
  :func:`grid_placement`, :func:`clustered_placement`) produce
  :class:`NodePlacement` lists around the sink at the origin;
* :class:`NetworkTopology` is the general placement + connectivity-graph
  view: deterministic pairwise link losses plus a neighbour graph induced
  by a maximum usable link loss, the substrate
  :mod:`repro.network.routing` builds sink trees on.

:class:`TopologyModel` (frozen, picklable, like
:class:`repro.network.traffic.TrafficModel`) is the declarative layer
scenarios embed: ``grid`` / ``disc`` / ``cluster`` place nodes
geometrically and derive every loss from the placement.  The paper's star
is no topology model at all: a scenario without one draws its losses
directly (:func:`build_topology_model` maps ``"star"`` to ``None``).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.pathloss import LogDistancePathLoss, PathLossModel
from repro.constants import SINGLE_HOP_TOPOLOGY_KINDS, TOPOLOGY_KINDS
from repro.network.geometry import (deterministic_path_loss_db,
                                    pairwise_path_losses_db,
                                    propagation_distance_m)

#: The sink's (coordinator's) node id in every connectivity structure.
SINK_NODE_ID = 0


@dataclass(frozen=True)
class NodePlacement:
    """Position of one node relative to the base station (at the origin).

    Attributes
    ----------
    node_id:
        Unique identifier (>= 1; 0 is the coordinator).
    x_m / y_m:
        Cartesian coordinates in metres.
    """

    node_id: int
    x_m: float
    y_m: float


def uniform_disc_placement(count: int, radius_m: float,
                           rng: np.random.Generator,
                           first_node_id: int = 1) -> List[NodePlacement]:
    """Place ``count`` nodes uniformly over a disc of ``radius_m``.

    Uniformity over the *area* requires the radial coordinate to follow
    ``radius * sqrt(U)``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if radius_m <= 0:
        raise ValueError("radius_m must be positive")
    radii = radius_m * np.sqrt(rng.random(count))
    angles = rng.uniform(0.0, 2.0 * math.pi, count)
    return [
        NodePlacement(node_id=first_node_id + i,
                      x_m=float(radii[i] * math.cos(angles[i])),
                      y_m=float(radii[i] * math.sin(angles[i])))
        for i in range(count)
    ]


def grid_placement(count: int, spacing_m: float,
                   first_node_id: int = 1) -> List[NodePlacement]:
    """Place ``count`` nodes on a square lattice centred on the sink.

    The sink occupies the origin; nodes fill the surrounding lattice points
    ``(i * spacing, j * spacing)`` in deterministic near-to-far order
    (distance, then angle, then coordinates break exact ties), so the same
    count always produces the same layout — no randomness is consumed.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if spacing_m <= 0:
        raise ValueError("spacing_m must be positive")
    # A (2r+1)^2 lattice block minus the origin covers `count` nodes once
    # (2r+1)^2 - 1 >= count.
    reach = 1
    while (2 * reach + 1) ** 2 - 1 < count:
        reach += 1
    candidates = [(i * spacing_m, j * spacing_m)
                  for i in range(-reach, reach + 1)
                  for j in range(-reach, reach + 1)
                  if not (i == 0 and j == 0)]
    candidates.sort(key=lambda xy: (math.hypot(xy[0], xy[1]),
                                    math.atan2(xy[1], xy[0]), xy[0], xy[1]))
    return [NodePlacement(node_id=first_node_id + index, x_m=x, y_m=y)
            for index, (x, y) in enumerate(candidates[:count])]


def clustered_placement(count: int, num_clusters: int, area_radius_m: float,
                        cluster_radius_m: float, rng: np.random.Generator,
                        first_node_id: int = 1) -> List[NodePlacement]:
    """Place ``count`` nodes in Gaussian clumps around uniform cluster heads.

    Cluster centres are drawn uniformly over the deployment disc (area
    uniform, like :func:`uniform_disc_placement`); members scatter around
    their centre with an isotropic Gaussian of ``cluster_radius_m``
    standard deviation, assigned round-robin so cluster sizes differ by at
    most one.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if num_clusters < 1:
        raise ValueError("num_clusters must be at least 1")
    if area_radius_m <= 0 or cluster_radius_m <= 0:
        raise ValueError("area_radius_m and cluster_radius_m must be positive")
    radii = area_radius_m * np.sqrt(rng.random(num_clusters))
    angles = rng.uniform(0.0, 2.0 * math.pi, num_clusters)
    centres = [(float(radii[i] * math.cos(angles[i])),
                float(radii[i] * math.sin(angles[i])))
               for i in range(num_clusters)]
    offsets = rng.normal(0.0, cluster_radius_m, size=(count, 2))
    return [
        NodePlacement(node_id=first_node_id + index,
                      x_m=centres[index % num_clusters][0]
                      + float(offsets[index, 0]),
                      y_m=centres[index % num_clusters][1]
                      + float(offsets[index, 1]))
        for index in range(count)
    ]


@dataclass
class NetworkTopology:
    """Placement + connectivity-graph view of one channel's population.

    The sink (node id 0) sits at the origin.  Link losses are the
    *deterministic* (median, shadowing-free) evaluations of one path-loss
    model, so every process building the same placements derives the
    identical graph — the property seeded sink-tree routing relies on.

    Attributes
    ----------
    placements:
        Geometric node positions, ascending node id.
    sink_losses_db:
        Node id -> median loss of the node's direct sink link.
    link_losses_db:
        Unordered node pair ``(min_id, max_id)`` -> median link loss.
    max_link_loss_db:
        Connectivity threshold: links at or below it are usable hops.
    """

    placements: List[NodePlacement]
    sink_losses_db: Dict[int, float]
    link_losses_db: Dict[Tuple[int, int], float]
    max_link_loss_db: float

    @classmethod
    def from_placements(cls, placements: Sequence[NodePlacement],
                        path_loss_model: Optional[PathLossModel] = None,
                        max_link_loss_db: float = 78.0) -> "NetworkTopology":
        """Derive the full loss structure of a placement set.

        Every loss — sink links and node-to-node links alike — comes from
        :mod:`repro.network.geometry`'s deterministic evaluation with the
        shared distance clamp, so a relay link and a sink link of equal
        length carry equal loss.
        """
        ordered = sorted(placements, key=lambda p: p.node_id)
        sink_losses = {
            p.node_id: deterministic_path_loss_db(
                path_loss_model, propagation_distance_m(p.x_m, p.y_m))
            for p in ordered}
        matrix = pairwise_path_losses_db(ordered, path_loss_model)
        # an object array hands out the placements' own id objects rather
        # than a fresh int per dictionary key
        ids = np.array([p.node_id for p in ordered], dtype=object)
        rows, cols = np.triu_indices(len(ordered), 1)
        links = dict(zip(zip(ids[rows].tolist(), ids[cols].tolist()),
                         matrix[rows, cols].tolist()))
        return cls(placements=ordered, sink_losses_db=sink_losses,
                   link_losses_db=links,
                   max_link_loss_db=float(max_link_loss_db))

    # -- queries -------------------------------------------------------------------
    @property
    def node_ids(self) -> List[int]:
        """All device identifiers, ascending."""
        return sorted(self.sink_losses_db)

    def link_loss_db(self, a: int, b: int) -> float:
        """Median loss of the ``a``–``b`` link (either id may be the sink)."""
        if a == b:
            raise ValueError("A link needs two distinct nodes")
        if SINK_NODE_ID in (a, b):
            other = b if a == SINK_NODE_ID else a
            return self.sink_losses_db[other]
        return self.link_losses_db[(min(a, b), max(a, b))]

    def neighbors(self, node_id: int) -> List[int]:
        """Nodes (and possibly the sink) reachable in one hop, ascending.

        A neighbour is any node whose link loss does not exceed
        ``max_link_loss_db``; the sink (id 0) appears first when its link
        qualifies.  The lists of every node are built together on the
        first call, so the loss fields must not be edited after it.
        """
        return list(self._neighbour_table()[node_id])

    def _neighbour_table(self) -> Dict[int, List[int]]:
        table = self.__dict__.get("_neighbours")
        if table is None:
            limit = self.max_link_loss_db
            links = self.link_losses_db
            usable = np.fromiter(links.values(), dtype=float,
                                 count=len(links)) <= limit
            peers: Dict[int, List[int]] = {n: [] for n in self.node_ids}
            for a, b in compress(links, usable.tolist()):
                peers[a].append(b)
                peers[b].append(a)
            sink_usable = {n: self.sink_losses_db[n] <= limit for n in peers}
            table = {SINK_NODE_ID: [n for n in peers if sink_usable[n]]}
            for n, others in peers.items():
                table[n] = ([SINK_NODE_ID] if sink_usable[n] else []) \
                    + sorted(others)
            self._neighbours = table
        return table


# ---------------------------------------------------------------------------
# topology models (frozen, picklable configuration)
# ---------------------------------------------------------------------------

class TopologyModel(abc.ABC):
    """Declarative description of one channel's node layout.

    Implementations are frozen dataclasses — hashable, picklable, directly
    embeddable in :class:`repro.network.spec.ScenarioSpec` — and carry a
    ``kind`` tag matching :data:`TOPOLOGY_KINDS`.  Every model places
    nodes in space; the paper's star is a scenario without a model.
    """

    kind: str = "abstract"

    @abc.abstractmethod
    def place(self, count: int,
              rng: Optional[np.random.Generator] = None,
              first_node_id: int = 1) -> List[NodePlacement]:
        """Place ``count`` nodes (``rng`` ignored by deterministic layouts)."""

    def path_loss_model(self) -> PathLossModel:
        """The propagation model every loss of this layout derives from."""
        return LogDistancePathLoss(exponent=self.path_loss_exponent)

    def build_network(self, node_ids: Sequence[int],
                      rng: Optional[np.random.Generator] = None
                      ) -> NetworkTopology:
        """The connectivity graph of ``node_ids`` laid out by this model.

        Placement positions are generated for ``len(node_ids)`` nodes and
        assigned to the given ids in order — channel populations are not
        contiguous id ranges (round-robin allocation), but their layout
        must not depend on the global numbering.
        """
        placements = self.place(len(node_ids), rng=rng)
        rekeyed = [NodePlacement(node_id=node_id, x_m=p.x_m, y_m=p.y_m)
                   for node_id, p in zip(node_ids, placements)]
        return NetworkTopology.from_placements(
            rekeyed, path_loss_model=self.path_loss_model(),
            max_link_loss_db=self.max_link_loss_db)


@dataclass(frozen=True)
class GridTopologyModel(TopologyModel):
    """Deterministic square lattice around the sink.

    Defaults put the first ring at 12 m (≈ 73 dB with the exponent-3
    model — mid paper range) and make one lattice step the usable hop:
    78 dB reaches ≈ 18 m, covering lateral and diagonal neighbours but not
    the two-step 24 m links, so hop depth equals the Chebyshev ring index.
    """

    spacing_m: float = 12.0
    path_loss_exponent: float = 3.0
    max_link_loss_db: float = 78.0

    kind = "grid"

    def __post_init__(self):
        if self.spacing_m <= 0:
            raise ValueError("spacing_m must be positive")

    def place(self, count: int, rng: Optional[np.random.Generator] = None,
              first_node_id: int = 1) -> List[NodePlacement]:
        return grid_placement(count, self.spacing_m,
                              first_node_id=first_node_id)


@dataclass(frozen=True)
class DiscTopologyModel(TopologyModel):
    """Uniform random placement over a disc (the paper's deployment shape).

    The default 60 m radius spans sink losses of roughly 40–94 dB under
    the exponent-3 model — the geometric analogue of the paper's
    U(55, 95) dB assumption — while the 78 dB link threshold (≈ 18 m)
    forces the outer half of the disc to relay.
    """

    radius_m: float = 60.0
    path_loss_exponent: float = 3.0
    max_link_loss_db: float = 78.0

    kind = "disc"

    def __post_init__(self):
        if self.radius_m <= 0:
            raise ValueError("radius_m must be positive")

    def place(self, count: int, rng: Optional[np.random.Generator] = None,
              first_node_id: int = 1) -> List[NodePlacement]:
        if rng is None:
            raise ValueError("disc placement needs a random generator")
        return uniform_disc_placement(count, self.radius_m, rng,
                                      first_node_id=first_node_id)


@dataclass(frozen=True)
class ClusteredTopologyModel(TopologyModel):
    """Gaussian clumps around uniform cluster heads (dense hot spots)."""

    num_clusters: int = 4
    area_radius_m: float = 60.0
    cluster_radius_m: float = 8.0
    path_loss_exponent: float = 3.0
    max_link_loss_db: float = 78.0

    kind = "cluster"

    def __post_init__(self):
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be at least 1")
        if self.area_radius_m <= 0 or self.cluster_radius_m <= 0:
            raise ValueError("area_radius_m and cluster_radius_m must be "
                             "positive")

    def place(self, count: int, rng: Optional[np.random.Generator] = None,
              first_node_id: int = 1) -> List[NodePlacement]:
        if rng is None:
            raise ValueError("clustered placement needs a random generator")
        return clustered_placement(count, self.num_clusters,
                                   self.area_radius_m, self.cluster_radius_m,
                                   rng, first_node_id=first_node_id)


def build_topology_model(name: str, spacing_m: float = 12.0,
                         radius_m: float = 60.0, num_clusters: int = 4,
                         cluster_radius_m: float = 8.0,
                         path_loss_exponent: float = 3.0,
                         max_link_loss_db: float = 78.0
                         ) -> Optional[TopologyModel]:
    """Build a registered topology model from flat experiment parameters.

    Parameters
    ----------
    name:
        One of :data:`TOPOLOGY_KINDS`; ``"star"``, the paper's direct
        path-loss draw, is no geometric layout and builds ``None``.
    spacing_m:
        Lattice step of the ``"grid"`` layout.
    radius_m:
        Deployment radius of the ``"disc"`` layout (and the cluster-head
        area of ``"cluster"``).
    num_clusters / cluster_radius_m:
        Clump structure of the ``"cluster"`` layout.
    path_loss_exponent / max_link_loss_db:
        Propagation model and one-hop connectivity threshold shared by all
        geometric layouts; ignored by ``"star"``.
    """
    if name not in TOPOLOGY_KINDS:
        raise ValueError(f"Unknown topology {name!r}; choose one of "
                         f"{', '.join(TOPOLOGY_KINDS)}")
    if name in SINGLE_HOP_TOPOLOGY_KINDS:
        return None
    if name == "grid":
        return GridTopologyModel(spacing_m=spacing_m,
                                 path_loss_exponent=path_loss_exponent,
                                 max_link_loss_db=max_link_loss_db)
    if name == "disc":
        return DiscTopologyModel(radius_m=radius_m,
                                 path_loss_exponent=path_loss_exponent,
                                 max_link_loss_db=max_link_loss_db)
    return ClusteredTopologyModel(num_clusters=num_clusters,
                                  area_radius_m=radius_m,
                                  cluster_radius_m=cluster_radius_m,
                                  path_loss_exponent=path_loss_exponent,
                                  max_link_loss_db=max_link_loss_db)
