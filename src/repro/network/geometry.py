"""Shared distance / path-loss geometry arithmetic of the network layer.

Before this module existed the same two pieces of float-sensitive arithmetic
lived in two places with subtly different guards:

* the propagation-distance clamp — :class:`repro.network.topology`
  clamped geometric distances to 0.1 m before evaluating a path-loss model,
  while other call sites passed raw distances straight through, and
* the programmable-level selection of
  :func:`repro.network.spec.adaptive_tx_levels` — a received-power
  threshold obtained by bisection over the packet-error model, then a
  ``searchsorted`` over the radio's level ladder with a 1e-9 dB guard
  against float round-off in the ``loss + threshold`` sum.

Both now live here, used by the star topology, channel-inversion link
adaptation *and* the multi-hop connectivity graph, so every layer orders
floats the same way: the same node at the same distance always sees the
same loss, and the same loss always selects the same transmit level.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.channel.pathloss import LogDistancePathLoss, PathLossModel

#: Geometric distances are clamped to this before a path-loss model sees
#: them: a node dropped (numerically) onto the coordinator would otherwise
#: produce a degenerate zero-distance evaluation.  10 cm is well inside the
#: reference distance of every model used here, so the clamp only guards
#: the singularity — it never changes a realistic placement's loss.
MIN_PROPAGATION_DISTANCE_M = 0.1

#: Guard subtracted before the level ``searchsorted``: ``loss + threshold``
#: can land a hair above the exactly-sufficient programmable level through
#: float round-off alone, which would needlessly select the next level up.
LEVEL_MARGIN_DB = 1e-9


def propagation_distance_m(x1_m: float, y1_m: float,
                           x2_m: float = 0.0, y2_m: float = 0.0) -> float:
    """Euclidean distance between two points, clamped for propagation.

    The coordinator sits at the origin, so the two-argument form gives a
    node's clamped distance to the sink.
    """
    return max(math.hypot(x1_m - x2_m, y1_m - y2_m),
               MIN_PROPAGATION_DISTANCE_M)


def deterministic_path_loss_db(model: Optional[PathLossModel],
                               distance_m: float) -> float:
    """Median (shadowing-free) path loss of ``model`` at ``distance_m``.

    ``model`` of ``None`` uses the default log-distance exponent-3 model
    (indoor / dense deployment), matching the star topology's historical
    default.  The distance is clamped by :func:`propagation_distance_m`
    semantics — callers pass already-clamped distances or raw ones alike.
    """
    resolved = model or LogDistancePathLoss(exponent=3.0)
    return float(resolved.attenuation_db(
        max(distance_m, MIN_PROPAGATION_DISTANCE_M)))


def pairwise_path_losses_db(placements: Sequence,
                            model: Optional[PathLossModel] = None
                            ) -> np.ndarray:
    """Symmetric matrix of median link losses between placements.

    ``placements`` is a sequence of :class:`repro.network.topology.
    NodePlacement`-shaped objects (``x_m`` / ``y_m`` attributes); entry
    ``[i, j]`` is the deterministic loss of the ``i``–``j`` link, with the
    diagonal set to ``0.0`` (a node does not interfere with itself through
    the propagation model).  Distances are clamped exactly like the
    node-to-sink losses, so a relay link and a sink link of equal length
    carry equal loss.

    A link's loss depends only on its displacement ``(|dx|, |dy|)``, which
    numpy computes exactly; the scalar :func:`propagation_distance_m` and
    :func:`deterministic_path_loss_db` then run once per distinct
    displacement (a lattice has a few dozen) and the results are
    scattered.  ``np.hypot`` / ``np.log10`` are not used: on some CPUs
    their vectorised kernels round differently from ``math``'s.
    """
    count = len(placements)
    losses = np.zeros((count, count), dtype=float)
    if count < 2:
        return losses
    xs = np.array([placement.x_m for placement in placements], dtype=float)
    ys = np.array([placement.y_m for placement in placements], dtype=float)
    rows, cols = np.triu_indices(count, 1)
    # (|dx|, |dy|) packed exactly into one complex key: np.unique sorts a
    # complex array natively, 8x faster than the structured sort of axis=0
    displacements = np.empty(rows.size, dtype=complex)
    displacements.real = np.abs(xs[rows] - xs[cols])
    displacements.imag = np.abs(ys[rows] - ys[cols])
    distinct, inverse = np.unique(displacements, return_inverse=True)
    distinct_losses = np.array([
        deterministic_path_loss_db(model, propagation_distance_m(dx, dy))
        for dx, dy in zip(distinct.real.tolist(), distinct.imag.tolist())])
    upper = distinct_losses[inverse]
    losses[rows, cols] = upper
    losses[cols, rows] = upper
    return losses


def rx_power_threshold_dbm(payload_on_air_bytes: int,
                           target_packet_error: float = 0.01,
                           sensitivity_dbm: float = -94.0,
                           error_model=None) -> float:
    """Received power at which the packet-error constraint is met.

    Reduces the packet-error constraint of channel-inversion link
    adaptation to a single received-power threshold by bisection — the BER
    model is monotone in received power — so per-node level selection
    becomes one vectorised comparison (:func:`lowest_sufficient_levels`).
    Below ``sensitivity_dbm`` the packet-error probability is 1.
    """
    from repro.phy.error_model import EmpiricalBerModel, packet_error_probability

    model = error_model if error_model is not None else EmpiricalBerModel()

    def per_at(rx_dbm: float) -> float:
        if rx_dbm < sensitivity_dbm:
            return 1.0
        return packet_error_probability(
            model.bit_error_probability(rx_dbm), payload_on_air_bytes)

    low, high = sensitivity_dbm, 0.0
    if per_at(high) > target_packet_error:  # pragma: no cover - degenerate model
        high = 20.0
    for _ in range(60):
        mid = 0.5 * (low + high)
        if per_at(mid) <= target_packet_error:
            high = mid
        else:
            low = mid
    return high


def lowest_sufficient_levels(path_losses_db, rx_threshold_dbm: float,
                             levels_dbm: Sequence[float]) -> List[float]:
    """Lowest programmable level reaching ``rx_threshold_dbm`` per loss.

    ``levels_dbm`` must be ascending (the radio's programmable ladder).
    Losses no level can serve fall back to the maximum level — the paper
    assumes every node is reachable at 0 dBm.  The float-ordering guard
    (:data:`LEVEL_MARGIN_DB`) makes an exactly-sufficient level win against
    round-off in the ``loss + threshold`` sum.
    """
    losses = np.asarray(path_losses_db, dtype=float)
    levels = np.asarray(levels_dbm, dtype=float)
    required = losses + rx_threshold_dbm
    indices = np.searchsorted(levels, required - LEVEL_MARGIN_DB)
    indices = np.minimum(indices, len(levels) - 1)
    return [float(levels[i]) for i in indices]
