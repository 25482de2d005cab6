"""Multi-channel packet-level simulation of a :class:`ScenarioSpec`.

The paper's case study splits 1600 nodes over sixteen RF channels; the
channels do not interact (separate frequencies, one coordinator each), so a
full-network simulation is an embarrassingly parallel fan-out of independent
single-channel simulations.  :func:`simulate_network` describes each channel
as a picklable :class:`ChannelSimTask` — the spec, the channel number, the
shared placement seed and a per-channel simulation seed spawned from the
master seed — and runs them through any :mod:`repro.runner.executor`
strategy, so ``--jobs N`` parallelism and serial runs produce identical
results.

The ``"batched"`` backend — the default — replaces the fan-out entirely:
every (channel, replication) pair becomes a
:class:`repro.mac.vectorized.ChannelLane` of one
:class:`repro.mac.vectorized.BatchedChannelSimulator` call, which advances
all lanes in lockstep numpy passes.  Lane seeds are exactly the per-channel
seeds of the task fan-out (replication 0) plus
:func:`replication_seeds`-spawned children (replications 1+), so batched and
per-channel runs are bit-identical row for row and adding replications never
perturbs existing ones.  The executor argument is ignored on this path:
a large call spreads its lanes over forked workers itself, one per usable
CPU, with byte-identical rows (see :mod:`repro.mac.vectorized`); the task
fan-out is how the event kernel spreads over the worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class ChannelSimTask:
    """Picklable description of one channel's packet-level simulation.

    ``placement_seed`` drives node placement and path losses and is shared
    by every task of a network run (all workers must see the same
    population); ``sim_seed`` drives the channel's packet-level randomness
    and is unique per (channel, replication).  ``replication`` is ``None``
    for single-replication runs (no ``"replication"`` row key, preserving
    historical row shapes and cache artifacts) and the replication index
    when the run asked for several.
    """

    spec: ScenarioSpec
    channel: int
    placement_seed: int
    sim_seed: int
    superframes: int
    max_nodes: Optional[int] = None
    backend: Optional[str] = None
    replication: Optional[int] = None


def simulate_channel(task: ChannelSimTask) -> Dict[str, Any]:
    """Simulate one channel of the spec'd network and summarise it as a dict.

    The task function of :func:`simulate_network`'s executor fan-out.
    """
    spec = task.spec
    tracer = current_tracer()
    with tracer.span(f"channel[{task.channel}]", kind="lane",
                     channel=task.channel, replication=task.replication):
        channel_scenario = _build_channel(
            spec, spec.build_seeded(task.placement_seed), task.channel,
            task.sim_seed, task.max_nodes)
        backend = task.backend or spec.backend
        summary = channel_scenario.run(superframes=task.superframes,
                                       backend=backend)
    return _summary_row(task.channel, summary, task.replication)


def _build_channel(spec: ScenarioSpec, scenario, channel: int, seed: int,
                   max_nodes: Optional[int]):
    """The :class:`ChannelScenario` of one channel of ``scenario``.

    Built from the spec's own superframe config, MAC constants and CSMA
    parameters, so band and SO < BO settings are honoured.  ``max_nodes``
    truncates the channel's population (refused for routed channels,
    whose sink tree spans all of it); the adaptive TX policy assigns each
    node its channel-inversion level.  Both the per-channel tasks and the
    batched lane grid build their channels here.
    """
    from repro.network.scenario import ChannelScenario

    nodes = scenario.nodes_on_channel(channel)
    tree = scenario.sink_tree(channel)
    if max_nodes is not None and len(nodes) > max_nodes:
        if tree is not None:
            raise ValueError("max_nodes cannot truncate a routed "
                             "channel: the sink tree spans the full "
                             "population")
        nodes = nodes[:max_nodes]
    if spec.tx_policy == TX_POLICY_ADAPTIVE:
        frame_bytes = spec.payload_bytes + _overhead_bytes()
        levels = adaptive_tx_levels(
            [node.path_loss_db for node in nodes], frame_bytes,
            target_packet_error=spec.target_packet_error,
            error_model=scenario.error_model)
        for node, level in zip(nodes, levels):
            node.tx_power_dbm = level
    return ChannelScenario(
        nodes=nodes,
        config=spec.superframe_config(),
        constants=spec.constants(),
        payload_bytes=spec.payload_bytes,
        seed=seed,
        csma_params=spec.csma_parameters(),
        default_tx_power_dbm=spec.tx_power_dbm,
        traffic=spec.traffic,
        tree=tree)


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


def _overhead_bytes() -> int:
    from repro.mac.frames import total_packet_overhead_bytes
    return total_packet_overhead_bytes()


def simulate_network(spec: ScenarioSpec, superframes: Optional[int] = None,
                     seed: Optional[int] = 0, executor=None,
                     max_nodes_per_channel: Optional[int] = None,
                     backend: Optional[str] = None,
                     replications: int = 1) -> List[Dict[str, Any]]:
    """Simulate every channel of ``spec``, batched or as executor tasks.

    Parameters
    ----------
    spec:
        The workload description.
    superframes:
        Beacon intervals to simulate per channel (default: the spec's hint).
    seed:
        Master seed; node placement uses it directly and channel ``i``
        receives the ``i``-th child of
        ``spawn_seeds(seed, CHANNEL_SEED_STREAM, num_channels)``, so serial
        and parallel runs are bit-identical.  ``None`` draws one fresh
        unpredictable master seed up front — the run is not reproducible,
        but all channels still share a single node population.
    executor:
        A :mod:`repro.runner.executor` strategy; ``None`` runs serially.
        Ignored by the ``"batched"`` backend, whose single lockstep kernel
        call advances every (channel, replication) lane at once and, when
        large enough, splits its lanes over forked workers itself.
    max_nodes_per_channel:
        Truncate each channel's population (scaled-down runs).
    backend:
        Override the spec's simulation backend.
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
    from repro.runner.executor import run_ordered

    resolved_backend = backend or spec.backend
    if resolved_backend == "batched":
        return _simulate_network_batched(
            spec, superframes=superframes, seed=seed,
            max_nodes_per_channel=max_nodes_per_channel,
            replications=replications)
    tasks = build_channel_tasks(spec, superframes=superframes, seed=seed,
                                max_nodes_per_channel=max_nodes_per_channel,
                                backend=backend, replications=replications)
    return run_ordered(executor, simulate_channel, tasks)


def _channel_lanes(spec: ScenarioSpec, scenario, seed: int,
                   max_nodes_per_channel: Optional[int],
                   replications: int):
    """The (channel, replication) lane grid of a batched network run.

    Returns ``(lanes, tags)`` where ``tags`` holds the matching
    ``(channel, replication-or-None)`` row labels.  Each channel is built
    by :func:`_build_channel`, as in :func:`simulate_channel` — every lane
    of one channel shares the node population and levels; only the lane
    seed varies.
    """
    from repro.mac.vectorized import ChannelLane

    channel_seeds = spawn_seeds(seed, CHANNEL_SEED_STREAM, len(spec.channels))
    lanes = []
    tags = []
    for channel, channel_seed in zip(spec.channels, channel_seeds):
        channel_scenario = _build_channel(spec, scenario, channel,
                                          channel_seed, max_nodes_per_channel)
        tx_levels = channel_scenario.resolved_tx_levels_dbm()
        for replication, lane_seed in enumerate(
                replication_seeds(channel_seed, replications)):
            lanes.append(ChannelLane(nodes=channel_scenario.nodes,
                                     tx_levels_dbm=tx_levels, seed=lane_seed,
                                     tree=channel_scenario.tree))
            tags.append((channel,
                         replication if replications > 1 else None))
    return lanes, tags


def _simulate_network_batched(spec: ScenarioSpec,
                              superframes: Optional[int] = None,
                              seed: Optional[int] = 0,
                              max_nodes_per_channel: Optional[int] = None,
                              replications: int = 1) -> List[Dict[str, Any]]:
    """One lockstep kernel call covering every (channel, replication)."""
    from repro.mac.vectorized import BatchedChannelSimulator

    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    if superframes is None:
        superframes = spec.superframes_hint
    scenario = spec.build_seeded(seed)
    lanes, tags = _channel_lanes(spec, scenario, seed,
                                 max_nodes_per_channel, replications)
    simulator = BatchedChannelSimulator(
        lanes, config=spec.superframe_config(), constants=spec.constants(),
        payload_bytes=spec.payload_bytes,
        csma_params=spec.csma_parameters(), traffic=spec.traffic)
    summaries = simulator.run(superframes=superframes)
    return [_summary_row(channel, summary, replication)
            for (channel, replication), summary in zip(tags, summaries)]


def build_channel_tasks(spec: ScenarioSpec, superframes: Optional[int] = None,
                        seed: Optional[int] = 0,
                        max_nodes_per_channel: Optional[int] = None,
                        backend: Optional[str] = None,
                        replications: int = 1) -> List[ChannelSimTask]:
    """The per-(channel, replication) task list of :func:`simulate_network`.

    A ``seed`` of ``None`` is resolved to one concrete (unpredictable)
    master seed up front — every channel task must still share the same
    node population.
    """
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    channels = spec.channels
    superframes = spec.superframes_hint if superframes is None else superframes
    seeds = spawn_seeds(seed, CHANNEL_SEED_STREAM, len(channels))
    return [ChannelSimTask(spec=spec, channel=channel, placement_seed=seed,
                           sim_seed=lane_seed, superframes=superframes,
                           max_nodes=max_nodes_per_channel, backend=backend,
                           replication=(replication if replications > 1
                                        else None))
            for channel, channel_seed in zip(channels, seeds)
            for replication, lane_seed in enumerate(
                replication_seeds(channel_seed, replications))]


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
