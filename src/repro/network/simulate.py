"""Multi-channel packet-level simulation of a :class:`ScenarioSpec`.

The paper's case study splits 1600 nodes over sixteen RF channels; the
channels do not interact (separate frequencies, one coordinator each), so a
full-network simulation is a set of independent single-channel
simulations.  :func:`simulate_network` turns the spec into one
:class:`repro.mac.vectorized.ChannelLane` per (channel, replication) pair —
the channel's nodes from :meth:`ScenarioSpec.population` at the master
seed, each node's transmit level, and a lane seed: for channel ``i`` the
``i``-th spawned child of the master seed (replication 0) or
:func:`replication_seeds` children of that (replications 1+) — and hands
that one lane list to either MAC kernel.

The ``"batched"`` backend — the default — advances every lane in one
:class:`repro.mac.vectorized.BatchedChannelSimulator` call; a large call
spreads its lanes over forked workers itself, one per usable CPU, with
byte-identical rows (see :mod:`repro.mac.vectorized`).  The ``"event"``
backend runs each lane as one task of an executor
(:mod:`repro.runner.executor`) on the discrete-event kernel
(:class:`repro.network.scenario.EventChannelSimulator`).  Both get the
same lanes, so their rows agree row for row (identical counts, energies to
float-summation-order precision), and adding replications never perturbs
existing ones.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.network.spec import (ScenarioSpec, TX_POLICY_ADAPTIVE,
                                adaptive_tx_levels)
from repro.obs.tracer import current_tracer
from repro.sim.random import spawn_seeds

#: Seed-stream label of the per-channel simulation seeds.
CHANNEL_SEED_STREAM = "network.simulate.channels"

#: Seed-stream label of the per-replication children of a channel seed.
REPLICATION_SEED_STREAM = "network.simulate.replications"

#: Simulation backends :func:`simulate_network` accepts.
BACKENDS = ("batched", "event")


def replication_seeds(channel_seed: int, count: int) -> List[int]:
    """Per-replication simulation seeds of one channel.

    Replication 0 *is* the channel seed — a single-replication run draws
    exactly the variates it always has — and replications 1+ are
    :func:`repro.sim.random.spawn_seeds` children of it, so the list is
    prefix-stable: raising ``count`` extends it without perturbing earlier
    replications.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if count == 1:
        return [channel_seed]
    return [channel_seed] + spawn_seeds(channel_seed,
                                        REPLICATION_SEED_STREAM, count - 1)


def _summary_row(channel: int, summary,
                 replication: Optional[int] = None) -> Dict[str, Any]:
    """The row dict every backend reports for one channel simulation."""
    row = {
        "channel": channel,
        "nodes": summary.node_count,
        "superframes": summary.superframes,
        "packets_attempted": summary.packets_attempted,
        "packets_delivered": summary.packets_delivered,
        "channel_access_failures": summary.channel_access_failures,
        "collisions": summary.collisions,
        "failure_probability": summary.failure_probability,
        "mean_power_uw": summary.mean_node_power_w * 1e6,
        "mean_delivery_delay_s": summary.mean_delivery_delay_s,
        "energy_by_phase_j": dict(summary.energy_by_phase_j),
    }
    if summary.by_depth is not None:
        # Conditional key: star rows (and their cache artifacts / exports)
        # stay byte-identical to the pre-routing stack.
        row["by_depth"] = {depth: dict(bucket)
                           for depth, bucket in summary.by_depth.items()}
    if replication is not None:
        row["replication"] = replication
    return row


def simulate_network(spec: ScenarioSpec, superframes: int,
                     seed: Optional[int] = 0, executor=None,
                     max_nodes_per_channel: Optional[int] = None,
                     backend: str = "batched",
                     replications: int = 1) -> List[Dict[str, Any]]:
    """Simulate every channel of ``spec`` on the batched or event kernel.

    Parameters
    ----------
    spec:
        The workload description.
    superframes:
        Beacon intervals to simulate per channel.
    seed:
        Master seed; the node population uses it directly and channel
        ``i`` receives the ``i``-th child of
        ``spawn_seeds(seed, CHANNEL_SEED_STREAM, num_channels)``, so both
        backends, serial and parallel, are bit-identical in counts.
        ``None`` draws one fresh unpredictable master seed up front — the
        run is not reproducible, but all channels still share a single
        node population.
    executor:
        The :mod:`repro.runner.executor` strategy the ``"event"`` backend
        runs its lanes on, one task each; ``None`` runs them in the
        caller.  Ignored by the ``"batched"`` backend, whose single
        lockstep kernel call advances every lane at once and, when large
        enough, splits its lanes over forked workers itself.
    max_nodes_per_channel:
        Truncate each channel's population (scaled-down runs); refused
        for routed channels, whose sink tree spans the whole population.
    backend:
        ``"batched"`` (the default) or ``"event"``, see :data:`BACKENDS`.
    replications:
        Monte-Carlo replications per channel.  Replication 0 uses the
        channel's historical seed (so ``replications=1`` reproduces every
        existing result bit-for-bit and adds no ``"replication"`` row key);
        further replications draw :func:`replication_seeds` children and
        tag every row with its replication index.

    Returns
    -------
    list of dict
        One summary dict per (channel, replication), channel-major, in
        channel then replication order.
    """
    from repro.mac.vectorized import BatchedChannelSimulator

    if backend not in BACKENDS:
        raise ValueError(f"Unknown backend {backend!r}; choose one of "
                         f"{', '.join(BACKENDS)}")
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    lanes, tags = _channel_lanes(spec, seed, max_nodes_per_channel,
                                 replications)
    shared = dict(config=spec.superframe_config(),
                  payload_bytes=spec.payload_bytes,
                  csma_params=spec.csma_parameters(), traffic=spec.traffic)
    if backend == "batched":
        summaries = BatchedChannelSimulator(lanes, **shared).run(superframes)
    else:
        from repro.network.scenario import EventChannelSimulator
        from repro.runner.executor import run_ordered

        def run_lane(index: int):
            channel, replication = tags[index]
            with current_tracer().span(f"channel[{channel}]", kind="lane",
                                       channel=channel,
                                       replication=replication):
                return EventChannelSimulator([lanes[index]], **shared) \
                    .run(superframes)[0]

        summaries = run_ordered(executor, run_lane, range(len(lanes)))
    return [_summary_row(channel, summary, replication)
            for (channel, replication), summary in zip(tags, summaries)]


def _channel_lanes(spec: ScenarioSpec, seed: int,
                   max_nodes_per_channel: Optional[int],
                   replications: int):
    """The (channel, replication) lanes of a network run.

    Returns ``(lanes, tags)`` where ``tags`` holds the matching
    ``(channel, replication-or-None)`` row labels.  Every lane of one
    channel shares its nodes, transmit levels and tree; only the lane
    seed varies.  ``max_nodes_per_channel`` keeps each channel's first
    nodes; the adaptive TX policy gives each node its channel-inversion
    level, the fixed one ``spec.tx_power_dbm``.
    """
    from repro.mac.frames import total_packet_overhead_bytes
    from repro.mac.vectorized import ChannelLane

    population = spec.population(seed)
    channel_seeds = spawn_seeds(seed, CHANNEL_SEED_STREAM, len(population))
    lanes = []
    tags = []
    for (channel, (nodes, tree)), channel_seed in zip(population.items(),
                                                       channel_seeds):
        if max_nodes_per_channel is not None \
                and len(nodes) > max_nodes_per_channel:
            if tree is not None:
                raise ValueError("max_nodes cannot truncate a routed "
                                 "channel: the sink tree spans the full "
                                 "population")
            nodes = nodes[:max_nodes_per_channel]
        if spec.tx_policy == TX_POLICY_ADAPTIVE:
            levels = adaptive_tx_levels(
                [node.path_loss_db for node in nodes],
                spec.payload_bytes + total_packet_overhead_bytes(),
                target_packet_error=spec.target_packet_error)
        else:
            levels = [spec.tx_power_dbm] * len(nodes)
        for replication, lane_seed in enumerate(
                replication_seeds(channel_seed, replications)):
            lanes.append(ChannelLane(nodes=nodes, tx_levels_dbm=levels,
                                     seed=lane_seed, tree=tree))
            tags.append((channel,
                         replication if replications > 1 else None))
    return lanes, tags


def aggregate_channel_rows(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """NaN-safe aggregation of per-channel summaries into network totals.

    Channels that delivered nothing report ``mean_delivery_delay_s`` of
    ``None``; the network mean skips them (weighting the rest by delivered
    packets) and is itself ``None`` when no channel delivered anything.

    Replication-tagged rows (``replications > 1`` runs) pool naturally:
    packet counts and failure probability sum over every (channel,
    replication) row and means weight every row alike, while ``nodes``
    counts each physical node once (replication 0 rows only — all
    replications of a channel share its population).
    """
    attempted = sum(row["packets_attempted"] for row in rows)
    delivered = sum(row["packets_delivered"] for row in rows)
    failures = sum(row["channel_access_failures"] for row in rows)
    collisions = sum(row["collisions"] for row in rows)
    node_count = sum(row["nodes"] for row in rows
                     if row.get("replication", 0) == 0)
    power = (float(np.average([row["mean_power_uw"] for row in rows],
                              weights=[row["nodes"] for row in rows]))
             if node_count else 0.0)
    delay_rows = [row for row in rows
                  if row["mean_delivery_delay_s"] is not None
                  and row["packets_delivered"] > 0]
    delay = None
    if delay_rows:
        delay = float(np.average(
            [row["mean_delivery_delay_s"] for row in delay_rows],
            weights=[row["packets_delivered"] for row in delay_rows]))
    energy: Dict[str, float] = {}
    for row in rows:
        for phase, value in row["energy_by_phase_j"].items():
            energy[phase] = energy.get(phase, 0.0) + value
    result = {
        "channels": len(rows),
        "nodes": node_count,
        "packets_attempted": attempted,
        "packets_delivered": delivered,
        "channel_access_failures": failures,
        "collisions": collisions,
        "failure_probability": (1.0 - delivered / attempted
                                if attempted else 0.0),
        "mean_power_uw": power,
        "mean_delivery_delay_s": delay,
        "energy_by_phase_j": energy,
    }
    by_depth = _merge_depth_breakdowns(rows)
    if by_depth is not None:
        result["by_depth"] = by_depth
    return result


def _merge_depth_breakdowns(
        rows: List[Dict[str, Any]]) -> Optional[Dict[int, Dict[str, Any]]]:
    """Network-wide per-hop-depth totals of routed rows (``None`` if none).

    Depth keys tolerate the string form JSON cache round-trips produce
    (:func:`repro.runner.drivers.jsonify` stringifies dict keys); the merge
    mirrors :func:`aggregate_channel_rows` — power weighted by nodes, delay
    by delivered packets, physical nodes counted on replication-0 rows only.
    """
    merged: Dict[int, Dict[str, float]] = {}
    for row in rows:
        for depth_key, bucket in (row.get("by_depth") or {}).items():
            depth = int(depth_key)
            entry = merged.setdefault(depth, {
                "nodes": 0, "packets_attempted": 0, "packets_delivered": 0,
                "_power_weighted": 0.0, "_power_weight": 0,
                "_delay_weighted": 0.0})
            if row.get("replication", 0) == 0:
                entry["nodes"] += bucket["nodes"]
            entry["packets_attempted"] += bucket["packets_attempted"]
            entry["packets_delivered"] += bucket["packets_delivered"]
            entry["_power_weighted"] += bucket["mean_power_uw"] \
                * bucket["nodes"]
            entry["_power_weight"] += bucket["nodes"]
            if bucket["mean_delivery_delay_s"] is not None:
                entry["_delay_weighted"] += bucket["mean_delivery_delay_s"] \
                    * bucket["packets_delivered"]
    if not merged:
        return None
    result: Dict[int, Dict[str, Any]] = {}
    for depth in sorted(merged):
        entry = merged[depth]
        delivered = entry["packets_delivered"]
        result[depth] = {
            "nodes": int(entry["nodes"]),
            "packets_attempted": int(entry["packets_attempted"]),
            "packets_delivered": int(delivered),
            "mean_power_uw":
                entry["_power_weighted"] / max(entry["_power_weight"], 1),
            "mean_delivery_delay_s":
                entry["_delay_weighted"] / delivered if delivered else None,
        }
    return result
