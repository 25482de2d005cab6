"""Batched lockstep fast path for the packet-level channel simulation.

The event-driven kernel (:mod:`repro.mac.device` on :mod:`repro.sim.engine`)
spends most of its time on generator resumes, event objects and per-charge
ledger records — fine for a 10-node validation channel, prohibitive for the
paper's full 100-nodes-per-channel case study.  This module simulates the
same uplink protocol with the device axis spanning **all channels × all
replications at once**:

* each independent single-channel simulation is a *lane*
  (:class:`ChannelLane`: nodes, resolved transmit levels, master seed); the
  batched kernel lays every lane's per-device MAC state (backoff exponent
  ``BE``, backoff stage ``NB``, contention window ``CW``, attempt counter)
  into flat lane-major arrays,
* each beacon interval is one *round*: the deterministic stretch from the
  pre-beacon wake-up through stagger and first backoff is advanced for every
  device of every lane in a handful of numpy passes, and only the
  interaction points — clear-channel-assessment samples — are replayed by a
  compact per-lane event merge carrying the device's flat batch index,
* the whole radio energy ledger is deferred to one numpy reduction at the
  end: each charge class (CCA, transmission, acknowledgement wait, ...) has
  a fixed energy/duration, so per-device counts and dwell-time sums
  reproduce the :class:`repro.radio.cc2420.EnergyLedger` totals exactly.

Equivalence contract
--------------------
For the same scenario and master seed each lane consumes the *same named
random streams in the same order* as the event-driven kernel
(``device[<id>]`` for stagger and backoff draws, ``coordinator`` for packet
corruption draws, ``traffic[<id>]`` for per-node packet arrivals, see
:class:`repro.sim.random.RandomStreams`) and applies the same timing rules
(CCA sampled at the end of its slot, traffic seen at the superframe
boundary, deferral checks against the contention access period, the
``run(until=horizon)`` event cut-off).  Both kernels read a lane's
traffic the same way, once at set-up: the packets each device gains at
each beacon (:func:`repro.network.routing.lane_arrivals`, drawn from the
``traffic[<id>]`` streams), which feed a per-device packet backlog.
Delivery / failure / attempt counts are therefore *identical* to
the event kernel's — and identical whether a lane runs alone or batched
with fifteen others — and energies agree to float-summation-order
precision.  This is asserted by the cross-validation matrix in
``tests/mac/test_vectorized.py``.

To batch the variate draws, the kernel replays each stream's raw
``uint64`` output (``BitGenerator.random_raw``) and applies numpy's own
bounded-integer / uniform transformations:

* ``Generator.integers(0, 2**be)`` is Lemire's method on the buffered
  32-bit path — the next ``uint32`` is the low half of a fresh ``uint64``
  (the high half is buffered for the following call) and the value is
  ``u32 >> (32 - be)``; a range of one consumes nothing,
* ``Generator.uniform(a, b)`` / ``Generator.random()`` consume one whole
  ``uint64`` (bypassing, not clearing, the 32-bit buffer) and map it to
  ``(u64 >> 11) * 2**-53``.

Every stream of a call is seeded in one vectorised pass
(:meth:`repro.sim.random.RandomStreams.primed`, numpy's ``SeedSequence``
arithmetic on arrays) rather than one ``SeedSequence`` object per stream.
These identities and that seeding are checked against the running numpy
at first use (:func:`raw_streams_compatible`); if numpy ever changes its
seeding or bit-stream consumption, :meth:`BatchedChannelSimulator.run`
raises rather than produce silently different variates, and
``backend="event"`` remains available.  A scalar per-lane oracle that
draws from the generators directly lives with the tests
(``tests/mac/test_lane_oracle.py``); it is the reference for this kernel
at the simulation horizon.

Memory: a call holds one fresh bit generator per stream, ``devices x 64``
raw words (the merge loop reads them in place; a device fills its row
about twice in a 50-superframe run) and the ``devices x
superframes`` arrival schedule.  Nothing is cached across calls, so a
long-lived process does not grow with each new seed.

Sharding: because a lane's summary does not depend on its batch, a large
call runs on the package's worker pool (:mod:`repro.pool`), one process
per usable CPU as far as :func:`_shard_count` allows: the caller and
forked children, each kept on a CPU of its own.  The lanes are cut into
contiguous pieces of about equal device count, two per worker
(:func:`_piece_count`), and each worker takes the next piece when it is
free, so a worker slowed by other work on its CPU runs fewer pieces; the
rows are byte-identical to a one-process call whichever worker ran which
piece.  Every child is reaped before :meth:`BatchedChannelSimulator.run`
returns or raises.  A call from a thread cannot fork; when its thread has
helpers lent (``repro serve``'s worker threads), it shares its pieces with
the idle ones instead, each piece a helper takes sent to it pickled
(:class:`repro.pool.KernelHelpers`).

Known departure: within a lane, simultaneous events are ordered by device
index, while the event kernel orders them by scheduling sequence.  Exact
float-time ties between distinct devices require the continuous stagger
draw to be degenerate (``latest_start <= arrival + wake_lead``), which no
paper or test configuration produces; staggered starts make ties a
measure-zero event.

Scope: the uplink transaction cycle of the paper's activation policy
(Figure 5) with staggered transaction starts — the only one the event
kernel (:class:`repro.network.scenario.EventChannelSimulator`) models
too.  Both kernels take the same input (:class:`ChannelSimulator`: a lane
list and the settings its lanes share).  What the event kernel adds is a
per-device timeline (one process per device), which makes it the semantic
oracle this kernel is checked against, not a wider protocol scope.
Collisions cannot occur under this policy (a transmission starts only
when the second CCA found the channel clear, which implies no frame is on
the air), so the batched kernel reports ``collisions == 0`` without
tracking the medium per device pair.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.mac.constants import (MAC_2450MHZ, PHASE_ACK, PHASE_BEACON,
                                 PHASE_CONTENTION, PHASE_SLEEP,
                                 PHASE_TRANSMIT, MacConstants)
from repro.mac.csma import CsmaParameters
from repro.mac.frames import AckFrame, BeaconFrame, DataFrame
from repro.mac.superframe import SuperframeConfig
from repro.obs.tracer import Tracer, activate, current_tracer
from repro.pool import (WorkerFailed, lent_helpers, run_helpers,
                        run_workers, worker_count)
from repro.radio.power_profile import (CC2420_PROFILE, RadioPowerProfile,
                                       T_SHUTDOWN_TO_IDLE_POLICY_S)
from repro.radio.states import RadioState
from repro.sim.random import RandomStreams

#: ``2**-53`` — the constant numpy's ``next_double`` scales by.
_U53 = 1.0 / 9007199254740992.0

#: Raw ``uint64`` words buffered per device stream between refills.
_RAW_CHUNK = 64

#: Device-superframes each worker of a sharded call must have.  Measured on
#: a 2-vCPU x86-64 host (16 lanes, BO 6, saturated): with the second vCPU
#: free, two shards beat one call by 1.4-1.9x from 16,000 device-superframes
#: up (1600 nodes x 10 superframes); squeezed onto one CPU
#: (``taskset -c 0``), they lost 29 % there, 14-19 % at 40,000-80,000, as
#: the fork, copy-on-write faults and reap (3-9 ms for an idle child at
#: 30-200 MB RSS) and the time-sharing are paid without the second core.
#: This floor keeps calls under 40,000 (about 0.1 s) in one process.
_SHARD_FLOOR = 20_000

#: Pieces per worker a sharded call is cut into, and the device-superframes
#: a piece must hold.  Every piece pays the per-call set-up and per-round
#: array work again: one 16-lane, 1600-node, 50-superframe call run as 2,
#: 4, 8 or 16 pieces took 1.00, 1.03-1.06, 1.13-1.17 and 1.23-1.26 times
#: the one call's time.  Measured per call on a 2-vCPU x86-64 host with
#: the second vCPU kept busy by another process, one piece per worker ran
#: at 0.91x one process (the call waits for the worker on the busy CPU)
#: and two per worker at 1.13x (the other worker takes three of four).
_PIECES_PER_WORKER = 2
_PIECE_FLOOR = 10_000

#: Cached result of :func:`raw_streams_compatible`.
_raw_compat: Optional[bool] = None


@dataclass(frozen=True)
class ChannelLane:
    """One independent single-channel simulation: a MAC kernel's unit.

    A lane holds the channel's nodes, the transmit level of each node
    (link adaptation happens in the caller,
    :func:`repro.network.simulate.simulate_network`) and the master seed of
    the lane's random streams.  Lanes of one call share the superframe
    configuration, MAC constants, payload and traffic model — the paper's
    fan-out varies only channel membership and seed — but are otherwise
    fully independent: distinct channels, distinct Monte-Carlo replications
    of one channel, or any mix.

    ``tree`` is the lane's sink tree
    (:class:`repro.network.routing.SinkTree`) when the channel is routed:
    relays then offer forwarding-augmented traffic and the lane's summary
    carries a per-hop-depth breakdown.  ``None`` — the default — is the
    classic star, byte-identical to the pre-routing kernel.
    """

    nodes: Sequence
    tx_levels_dbm: Sequence[float]
    seed: int
    tree: Optional[object] = None


def _beacon_airtime_s(config: SuperframeConfig,
                      constants: MacConstants) -> float:
    beacon = BeaconFrame(source=0, sequence_number=1,
                         beacon_order=config.beacon_order,
                         superframe_order=config.superframe_order,
                         gts_descriptors=0,
                         pending_short_addresses=())
    return beacon.airtime_s(constants.timing.byte_period_s)


def _make_data_frame(payload_bytes: int) -> DataFrame:
    return DataFrame(source=1, destination=0, sequence_number=1,
                     ack_request=True, payload=bytes(payload_bytes))


# ---------------------------------------------------------------------------
# raw-stream compatibility probe
# ---------------------------------------------------------------------------

def _probe_matches(real: np.random.Generator,
                   raw: np.random.BitGenerator) -> bool:
    """Whether raw-stream replay reproduces ``real``'s variates exactly.

    ``real`` and ``raw`` must wrap identically seeded bit generators; the
    probe interleaves the three draw shapes the kernel emulates (bounded
    power-of-two integers on the buffered 32-bit path, uniform and unit
    doubles on the bypassing 64-bit path) and compares bit-for-bit.
    """
    buffer: List[int] = []
    pointer = 0
    half: Optional[int] = None

    def take_u64() -> int:
        nonlocal pointer
        if pointer >= len(buffer):
            buffer.extend(raw.random_raw(32).tolist())
        value = buffer[pointer]
        pointer += 1
        return value

    def take_u32() -> int:
        nonlocal half
        if half is not None:
            value, half = half, None
            return value
        word = take_u64()
        half = word >> 32
        return word & 0xFFFFFFFF

    for round_index in range(24):
        exponent = round_index % 9  # covers the consumption-free range of 1
        expected = 0 if exponent == 0 else take_u32() >> (32 - exponent)
        if int(real.integers(0, 1 << exponent)) != expected:
            return False
        low = -1.5 + 0.25 * round_index
        high = low + 0.5 + 0.125 * round_index
        expected_u = low + (high - low) * ((take_u64() >> 11) * _U53)
        if float(real.uniform(low, high)) != expected_u:
            return False
        if float(real.random()) != (take_u64() >> 11) * _U53:
            return False
    return True


def _seeding_matches() -> bool:
    """Whether one-pass seeding (:meth:`RandomStreams.primed`) opens the
    streams ``SeedSequence`` seeds one by one, replicas included.

    The probe masters cover one to five 32-bit words (wider than the
    seed-sequence pool), the names the kernel's three stream kinds.
    """
    masters = (0, 987654321, 2**64 + 3, 2**130 + 7)
    names = ("coordinator", "device[1]", "traffic[4097]")
    families = RandomStreams.primed([(master, names) for master in masters])
    for master, primed in zip(masters, families):
        for name in names:
            expected = RandomStreams(master).get(name).bit_generator.state
            if primed.get(name).bit_generator.state != expected \
                    or primed.replica(name).bit_generator.state != expected:
                return False
    return True


def raw_streams_compatible() -> bool:
    """Whether this numpy's generators match the raw-stream replay.

    Checks the draw transformations (:func:`_probe_matches`) and the
    one-pass stream seeding (:func:`_seeding_matches`).  Evaluated once
    per process and cached; a mismatch (or any error while probing) makes
    every batched run raise instead of producing silently different
    variates.
    """
    global _raw_compat
    if _raw_compat is None:
        try:
            real = np.random.default_rng(
                np.random.SeedSequence(entropy=987654321, spawn_key=(11,)))
            raw = np.random.default_rng(
                np.random.SeedSequence(entropy=987654321,
                                       spawn_key=(11,))).bit_generator
            _raw_compat = _probe_matches(real, raw) and _seeding_matches()
        except Exception:  # pragma: no cover - depends on foreign numpy
            _raw_compat = False
    return _raw_compat


# ---------------------------------------------------------------------------
# lane pieces over forked workers or helpers
# ---------------------------------------------------------------------------

def _shard_cap(lane_count: int, devices: int, superframes: int) -> int:
    """The most workers one kernel call may use: one per lane, each with
    at least :data:`_SHARD_FLOOR` device-superframes."""
    return min(lane_count, devices * superframes // _SHARD_FLOOR)


def _shard_count(lane_count: int, devices: int, superframes: int) -> int:
    """How many forked processes one kernel call spreads its lanes over:
    what the pool's policy (:func:`repro.pool.worker_count`) grants, up to
    :func:`_shard_cap`."""
    return worker_count(_shard_cap(lane_count, devices, superframes))


def _piece_count(lane_count: int, devices: int, superframes: int,
                 workers: int) -> int:
    """How many pieces the ``workers`` of a sharded call share: up to
    :data:`_PIECES_PER_WORKER` each, as far as the lanes and
    :data:`_PIECE_FLOOR` allow, and never fewer than the workers."""
    return max(workers, min(lane_count, workers * _PIECES_PER_WORKER,
                            devices * superframes // _PIECE_FLOOR))


def _shard_bounds(counts: Sequence[int], shards: int) -> List[int]:
    """Lane indices cutting lanes of ``counts`` devices into ``shards``
    contiguous, non-empty runs of about equal device count."""
    prefix = [0]
    for count in counts:
        prefix.append(prefix[-1] + count)
    bounds = [0]
    for shard in range(1, shards):
        target = prefix[-1] * shard / shards
        cuts = range(bounds[-1] + 1, len(counts) - shards + shard + 1)
        bounds.append(min(cuts, key=lambda cut: abs(prefix[cut] - target)))
    bounds.append(len(counts))
    return bounds


def _run_pieces(pieces, indices, superframes: int, tracing: bool) -> tuple:
    """Run the ``pieces`` at ``indices``: ``({piece index: summaries},
    trace exports, seconds)``.  When ``tracing``, they run under one fresh
    buffer tracer, whose export is the list's one entry.  The caller and
    forked children run the pieces they pull; a helper, the one piece it
    was sent."""
    begun = perf_counter()
    done: Dict[int, List] = {}
    buffer = Tracer(name="shard") if tracing else None
    with activate(buffer) if tracing else nullcontext():
        for index in indices:
            done[index] = pieces[index]._run_batched(superframes)
    exports = [buffer.export()] if tracing else []
    return done, exports, perf_counter() - begun


def _warm_up() -> None:
    """A kernel helper's first call (:class:`repro.pool.KernelHelpers`):
    a one-node call loads the kernel's modules and runs the raw-stream
    probe in the helper, so its first piece pays for neither, and a
    helper whose numpy fails the probe is never used."""
    from repro.network.node import SensorNode
    node = SensorNode(node_id=1, channel=11, path_loss_db=70.0)
    BatchedChannelSimulator([ChannelLane(nodes=[node], tx_levels_dbm=[0.0],
                                         seed=0)],
                            SuperframeConfig()).run(1)


def _record_sharded_kernel(tracer, exports: Sequence[dict],
                           wall_s: float) -> None:
    """Record the workers' buffer tracers as the one ``kernel:batched``
    span and four phases a single-process call records.

    Counters add up across the pieces, except ``rounds``: every piece
    steps through the same beacon intervals, so the call ran as many as
    its longest piece.  The kernel span lasts the call's wall time, and
    each phase gets the pieces' summed time in it, scaled so that the
    phases fill that wall time.
    """
    spans: Dict[str, dict] = {}
    for export in exports:
        for span in export["spans"][1:]:
            folded = spans.setdefault(span["name"], {
                "kind": span["kind"], "duration_s": 0.0, "counters": {}})
            folded["duration_s"] += span["duration_s"]
            counters = folded["counters"]
            for key, value in span["counters"].items():
                counters[key] = (max(counters.get(key, 0), value)
                                 if key == "rounds"
                                 else counters.get(key, 0) + value)
    (kernel_name, kernel), *phases = spans.items()
    phase_s = sum(phase["duration_s"] for _, phase in phases)
    parent = tracer.record_span(kernel_name, wall_s, kind=kernel["kind"],
                                counters=kernel["counters"])
    for name, phase in phases:
        share = phase["duration_s"] / phase_s if phase_s else 0.0
        tracer.record_span(name, wall_s * share, kind=phase["kind"],
                           counters=phase["counters"], parent=parent)


# ---------------------------------------------------------------------------
# batched kernel
# ---------------------------------------------------------------------------

class ChannelSimulator:
    """The input of both MAC kernels: a lane list and what its lanes share.

    :class:`BatchedChannelSimulator` and the event kernel
    (:class:`repro.network.scenario.EventChannelSimulator`) take these
    arguments, and each ``run(superframes)`` returns one
    :class:`repro.network.scenario.SimulationSummary` per lane, in lane
    order.

    Parameters
    ----------
    lanes:
        The :class:`ChannelLane` list — typically one lane per (channel,
        replication) pair of a network run.  Every lane needs at least one
        node, one transmit level per node and, when routed, a sink tree
        over exactly its nodes.
    config / constants / payload_bytes / csma_params / profile / traffic:
        Superframe configuration, MAC constants, uplink payload, CSMA/CA
        parameters (the paper's convention by default), radio power
        profile and per-node packet process, shared by every lane.  A
        ``traffic`` of ``None`` is the paper's saturated assumption (one
        packet ready at every beacon); a model must carry
        ``payload_bytes``, and each lane draws it from its own
        ``traffic[<id>]`` streams, preserving the equivalence contract.
    """

    def __init__(self, lanes: Sequence[ChannelLane], config: SuperframeConfig,
                 constants: MacConstants = MAC_2450MHZ,
                 payload_bytes: int = 120,
                 csma_params: Optional[CsmaParameters] = None,
                 profile: RadioPowerProfile = CC2420_PROFILE,
                 traffic=None):
        if not lanes:
            raise ValueError("A channel simulation needs at least one lane")
        for lane in lanes:
            if not lane.nodes:
                raise ValueError(
                    "A channel simulation needs at least one node")
            if len(lane.tx_levels_dbm) != len(lane.nodes):
                raise ValueError("One transmit level per node is required")
            if lane.tree is not None and lane.tree.node_ids != sorted(
                    node.node_id for node in lane.nodes):
                raise ValueError("A lane's sink tree must span exactly its "
                                 "nodes")
        if traffic is not None:
            traffic.require_payload(payload_bytes, "the MAC kernel")
        self.lanes = [ChannelLane(nodes=list(lane.nodes),
                                  tx_levels_dbm=[float(level) for level
                                                 in lane.tx_levels_dbm],
                                  seed=lane.seed,
                                  tree=lane.tree)
                      for lane in lanes]
        self.config = config
        self.constants = constants
        self.payload_bytes = payload_bytes
        self.csma_params = csma_params or CsmaParameters.from_mac_constants(
            constants)
        self.profile = profile
        self.traffic = traffic


class BatchedChannelSimulator(ChannelSimulator):
    """Uplink simulation of many independent channel lanes in lockstep."""

    def run(self, superframes: int = 10) -> List:
        """Simulate every lane for ``superframes`` beacon intervals.

        Returns one :class:`repro.network.scenario.SimulationSummary` per
        lane, in lane order — bit-for-bit what a single-lane run of each
        lane would produce, so a call large enough to be sharded
        (:func:`_shard_cap`) over forked workers (:func:`_shard_count`),
        or over the helpers lent to a thread
        (:func:`repro.pool.lent_helpers`), returns the same summaries as a
        single-process call.  Raises :class:`RuntimeError` when this numpy
        fails the raw-stream probe (:func:`raw_streams_compatible`) or a
        forked shard or helper fails.
        """
        if superframes < 1:
            raise ValueError("superframes must be at least 1")
        if not raw_streams_compatible():
            raise RuntimeError(
                f"numpy {np.__version__} seeds its streams or draws its "
                f"bounded integers or doubles differently from the "
                f"raw-stream replay the batched kernel relies on; run with "
                f"backend=\"event\" instead")
        size = (len(self.lanes),
                sum(len(lane.nodes) for lane in self.lanes), superframes)
        shards = _shard_count(*size)
        if shards > 1:
            return self._run_sharded(superframes, shards)
        helpers, cpu = lent_helpers(_shard_cap(*size) - 1, _warm_up)
        if helpers:
            return self._run_sharded(superframes, 1 + len(helpers), helpers,
                                     cpu)
        return self._run_batched(superframes)

    # -- lane pieces over forked workers or helpers ---------------------------
    def _run_sharded(self, superframes: int, workers: int,
                     helpers: Sequence = (), cpu: Optional[int] = None
                     ) -> List:
        """Run the lanes on ``workers`` processes: with no ``helpers``,
        the caller and ``workers - 1`` forked children of the worker pool
        (:func:`repro.pool.run_workers`), each kept on its own CPU; else
        the calling thread, kept on ``cpu``, and the ``helpers`` lent to it
        (:func:`repro.pool.run_helpers`), each piece a helper takes sent to
        it pickled.  Returns the summaries in lane order.

        The lanes are cut into contiguous pieces of about equal device
        count (:func:`_piece_count`), and every worker takes the next
        piece as soon as it is free, so a worker whose CPU is busy with
        other work runs fewer pieces instead of holding up the call.  A
        failed child or helper raises a :class:`RuntimeError` naming the
        worker and the lanes it failed on; an exception of the caller's
        own pieces propagates as it is.
        """
        tracer = current_tracer()
        tracing = tracer.enabled
        started = perf_counter()
        counts = [len(lane.nodes) for lane in self.lanes]
        bounds = _shard_bounds(counts, _piece_count(
            len(counts), sum(counts), superframes, workers))
        pieces = [BatchedChannelSimulator(
                      self.lanes[lo:hi], self.config, self.constants,
                      self.payload_bytes, self.csma_params, self.profile,
                      self.traffic)
                  for lo, hi in zip(bounds, bounds[1:])]

        def run_pieces(indices) -> tuple:
            return _run_pieces(pieces, indices, superframes, tracing)

        def request(index: int):
            return partial(_run_pieces, {index: pieces[index]}, (index,),
                           superframes, tracing)

        try:
            if helpers:
                local, *sent = run_helpers(run_pieces, request, len(pieces),
                                           list(helpers), cpu)
                outcomes = [local, *(reply for replies in sent
                                     for reply in replies)]
                worker_s = [local[2]] + [sum(reply[2] for reply in replies)
                                         for replies in sent]
            else:
                outcomes = run_workers(run_pieces, len(pieces), workers)
                worker_s = [seconds for _, _, seconds in outcomes]
        except WorkerFailed as failure:
            piece = failure.index
            lanes = ("" if piece is None else
                     f" on lanes {bounds[piece]}-{bounds[piece + 1] - 1}")
            raise RuntimeError(f"kernel worker {failure.worker} of {workers} "
                               f"failed{lanes}: {failure.text}") from None
        if tracing:
            _record_sharded_kernel(tracer,
                                   [export for _, exports, _ in outcomes
                                    for export in exports],
                                   perf_counter() - started)
            for seconds in worker_s:
                tracer.meter_record("kernel.shard_s", seconds)
        done = {index: summaries for pieces_done, _, _ in outcomes
                for index, summaries in pieces_done.items()}
        return [summary for index in range(len(pieces))
                for summary in done[index]]

    # -- the batched fast path ------------------------------------------------
    def _run_batched(self, superframes: int) -> List:
        from repro.network.routing import depth_breakdown, lane_arrivals
        from repro.network.scenario import SimulationSummary
        from repro.network.traffic import SaturatedTraffic

        # Telemetry: per-phase elapsed time accumulates in plain floats
        # guarded on one ``tracer.enabled`` check — the round loop and the
        # per-lane event merge allocate no span objects even when tracing —
        # and the four kernel phases are emitted once at the end.
        tracer = current_tracer()
        tracing = tracer.enabled
        t_setup = perf_counter() if tracing else 0.0

        constants = self.constants
        params = self.csma_params
        profile = self.profile
        config = self.config
        lanes = self.lanes

        # ---- timing constants (all in seconds, shared by every lane) -------
        slot = constants.unit_backoff_period_s
        byte_period = constants.timing.byte_period_s
        interval = config.beacon_interval_s
        sf_duration = config.superframe_duration_s
        beacon_air = _beacon_airtime_s(config, constants)
        frame = _make_data_frame(self.payload_bytes)
        frame_air = frame.airtime_s(byte_period)
        ack_air = AckFrame().airtime_s(byte_period)
        turnaround = constants.turnaround_time_s
        ack_wait = constants.ack_wait_duration_s
        residual = max(0.0, ack_wait - turnaround)
        wake_lead = T_SHUTDOWN_TO_IDLE_POLICY_S
        margin = 56 * slot + frame_air + ack_wait
        txn_tail = frame_air + turnaround + ack_air
        horizon = superframes * interval
        max_transmissions = constants.max_transmissions
        max_backoffs = params.max_csma_backoffs
        cw0 = params.contention_window
        be0 = params.initial_backoff_exponent()
        be_cap = params.max_be
        if params.battery_life_extension:
            be_cap = min(be_cap, params.battery_life_extension_max_be)

        # ---- flat lane-major device layout ---------------------------------
        lane_count = len(lanes)
        counts = [len(lane.nodes) for lane in lanes]
        n = sum(counts)
        bounds = np.zeros(lane_count + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        lane_of = np.repeat(np.arange(lane_count), counts)

        # ---- raw draw state -------------------------------------------------
        # The largest block of the call, allocated before set-up creates
        # thousands of small long-lived objects: in a long-lived process it
        # then lands in the space the previous call's block left, instead
        # of growing the heap past fragments (which cost the 128-lane case
        # study ~17 MB of peak RSS).
        raws = np.zeros((n, _RAW_CHUNK), dtype=np.uint64)
        rptr = np.full(n, _RAW_CHUNK, dtype=np.int64)
        half_has = np.zeros(n, dtype=bool)
        half_val = np.zeros(n, dtype=np.uint64)
        u32_mask = np.uint64(0xFFFFFFFF)
        shift_32 = np.uint64(32)

        traffic_model = self.traffic
        if traffic_model is None:
            traffic_model = SaturatedTraffic(payload_bytes=self.payload_bytes)
        # Forwarding turns even saturated relays stateful (their own feed
        # is bottomless but descendants' replicas are not), so any lane
        # with relays drops the whole batch off the schedule-free fast path.
        forwarding = any(lane.tree is not None and lane.tree.relays
                         for lane in lanes)
        saturated = isinstance(traffic_model, SaturatedTraffic) \
            and not forwarding

        # ---- per-lane streams (identical names to the event kernel) --------
        # Every stream of the call is seeded in one pass and opened fresh,
        # so no generator state outlives the call; a lane's family (with
        # its traffic generators) is dropped once the lane is set up.
        # Traffic is read once here: ``new_packets[d, k]`` is what device
        # ``d`` gains at beacon ``k`` (:func:`lane_arrivals`, the event
        # kernel's read too, from the same ``traffic[<id>]`` streams).
        device_names = [[f"device[{node.node_id}]" for node in lane.nodes]
                        for lane in lanes]
        traffic_names = [[] if saturated
                         else [f"traffic[{node.node_id}]"
                               for node in lane.nodes] for lane in lanes]
        lane_streams = RandomStreams.primed(
            [(lane.seed, ["coordinator", *devices, *feeds])
             for lane, devices, feeds in zip(lanes, device_names,
                                             traffic_names)])
        device_bgs: List[np.random.BitGenerator] = []
        coordinator_bgs: List[np.random.BitGenerator] = []
        if not saturated:
            beacon_times = np.arange(superframes) * interval
            new_packets = np.zeros((n, superframes), dtype=np.int32)
        programmed_flat: List[float] = []
        pe_flat: List[float] = []
        ppdu_bytes = frame.ppdu_bytes
        for lane_index, (lane, streams) in enumerate(zip(lanes,
                                                         lane_streams)):
            coordinator_bgs.append(streams.get("coordinator").bit_generator)
            device_bgs.extend(streams.get(name).bit_generator
                              for name in device_names[lane_index])
            if not saturated:
                new_packets[bounds[lane_index]:bounds[lane_index + 1]] = \
                    lane_arrivals(traffic_model,
                                  [node.node_id for node in lane.nodes],
                                  streams, beacon_times, tree=lane.tree,
                                  hop_lag_s=interval)
            programmed = [profile.tx_level(level).level_dbm
                          for level in lane.tx_levels_dbm]
            programmed_flat.extend(programmed)
            pe_flat.extend(
                node.link().packet_error_probability(level, ppdu_bytes)
                for node, level in zip(lane.nodes, programmed))
        if not saturated:
            # a device with a packet sends one, so ``queued`` is its backlog
            queued = np.zeros(n, dtype=np.int64)

        def refill(needing: np.ndarray) -> None:
            for device in needing.tolist():
                raws[device] = device_bgs[device].random_raw(_RAW_CHUNK)
            rptr[needing] = 0

        def take_u64_vec(ids: np.ndarray) -> np.ndarray:
            pointers = rptr[ids]
            exhausted = pointers == _RAW_CHUNK
            if exhausted.any():
                refill(ids[exhausted])
                pointers = rptr[ids]
            out = raws[ids, pointers]
            rptr[ids] = pointers + 1
            return out

        def take_u32_vec(ids: np.ndarray) -> np.ndarray:
            has = half_has[ids]
            out = np.empty(ids.size, dtype=np.uint64)
            held = ids[has]
            out[has] = half_val[held]
            half_has[held] = False
            fresh = ids[~has]
            if fresh.size:
                words = take_u64_vec(fresh)
                out[~has] = words & u32_mask
                half_val[fresh] = words >> shift_32
                half_has[fresh] = True
            return out

        #: Per-lane pre-transformed coordinator doubles, consumed LIFO from
        #: the tail of a reversed block (identical order to the stream).
        coordinator_pool: List[List[float]] = [[] for _ in range(lane_count)]

        # ---- deferred-ledger accumulators (phase A side, numpy) ------------
        sleep_t = np.zeros(n)
        wake_beacon = np.zeros(n, dtype=np.int64)
        idle_beacon_t = np.zeros(n)
        beacon_rx = np.zeros(n, dtype=np.int64)
        wake_cont = np.zeros(n, dtype=np.int64)
        idle_cont_t = np.zeros(n)
        cca_sched = np.zeros(n, dtype=np.int64)
        attempted = np.zeros(n, dtype=np.int64)

        # ---- event-loop accumulators (python lists, scalar writes) ---------
        # Transmission and acknowledgement counts are derived at ledger
        # time: every transmission is acknowledged or not (tx = acks +
        # residuals), every acknowledged packet is delivered unless the
        # horizon cut its tail (acks = delivered + ack_killed), and the
        # ack-turnaround idle time is per-transmission constant.
        cca_loop = [0] * n
        idle_cont_loop = [0.0] * n
        residual_rx = [0] * n
        failures = [0] * n
        delivered = [0] * n
        delay_sum = [0.0] * n  # delivered packets provide the count
        ack_killed: List[int] = []  # acked, then killed before delivery

        # ---- transient MAC state (BE/NB/CW/attempt live in merge-loop
        # locals and heap entries; only the timeline state is per-device) ----
        dev_now = np.zeros(n)
        dead = np.zeros(n, dtype=bool)
        busy_end = [0.0] * lane_count

        # ---- per-lane phase visibility -------------------------------------
        flag_beacon = np.zeros(lane_count, dtype=bool)
        flag_cont = np.zeros(lane_count, dtype=bool)
        flag_tx = np.zeros(lane_count, dtype=bool)
        flag_sleep = np.zeros(lane_count, dtype=bool)

        pe_list = pe_flat  # python floats for the scalar loop

        if tracing:
            setup_s = perf_counter() - t_setup
            grid_s = merge_s = 0.0
            t_phase = 0.0
            rounds = 0

        for round_index in range(superframes):
            # Grid time spans from here to the phase-B marker; a round that
            # exits early (``continue``) leaves ``t_phase`` open and the
            # next round (or the post-loop close) absorbs the remainder.
            if tracing:
                now_t = perf_counter()
                if t_phase:
                    grid_s += now_t - t_phase
                t_phase = now_t
                rounds += 1
            beacon_at = round_index * interval
            cap_end = beacon_at + sf_duration
            latest = cap_end - margin
            ids = np.nonzero(~dead)[0]
            if ids.size == 0:  # pragma: no cover - kills only land in the
                break          # last round, so no earlier round starts empty

            # ---- phase A: wake, beacon, traffic, stagger, first backoff ----
            alive_lanes = lane_of[ids]
            if round_index > 0:
                flag_sleep[alive_lanes] = True  # idle->shutdown strobe
            now = dev_now[ids]
            wake = np.maximum(beacon_at - wake_lead, now)
            sleep_t[ids] += wake - now
            wake_beacon[ids] += 1
            idle_beacon_t[ids] += np.maximum(beacon_at - wake, 0.0)
            beacon_rx[ids] += 1
            flag_beacon[alive_lanes] = True
            arrival = np.maximum(wake, beacon_at) + beacon_air
            over = arrival > horizon
            if over.any():  # pragma: no cover - needs beacon_air >= interval
                dead[ids[over]] = True
                ids = ids[~over]
                arrival = arrival[~over]
                if ids.size == 0:
                    continue

            if saturated:
                ids2 = ids
                arrival2 = arrival
            else:
                buffered = queued[ids] + new_packets[ids, round_index]
                has_packet = buffered > 0
                queued[ids] = buffered - has_packet
                idle = ~has_packet
                dev_now[ids[idle]] = arrival[idle]
                ids2 = ids[has_packet]
                arrival2 = arrival[has_packet]
                if ids2.size == 0:
                    continue

            low = arrival2 + wake_lead
            stagger = low < latest
            start = arrival2.copy()
            staggered = ids2[stagger]
            if staggered.size:
                flag_cont[lane_of[staggered]] = True
                words = take_u64_vec(staggered)
                unit = (words >> np.uint64(11)).astype(np.float64) * _U53
                low_s = low[stagger]
                start_s = low_s + (latest - low_s) * unit
                start[stagger] = start_s
                stagger_sleep = start_s - arrival2[stagger] - wake_lead
                slept = stagger_sleep > 0
                slept_ids = staggered[slept]
                if slept_ids.size:
                    flag_sleep[lane_of[slept_ids]] = True
                    sleep_t[slept_ids] += stagger_sleep[slept]
                    # start < latest_start <= horizon, so the kernel's
                    # mid-stagger horizon cut cannot trigger here.
                    wake_cont[slept_ids] += 1
                idle_cont_t[staggered] += wake_lead
            attempted[ids2] += 1

            if be0 > 0:
                first_u32 = take_u32_vec(ids2)
                first_delay = (first_u32
                               >> np.uint64(32 - be0)).astype(np.int64)
            else:
                first_delay = np.zeros(ids2.size, dtype=np.int64)
            waited = first_delay > 0
            if waited.any():
                idle_cont_t[ids2[waited]] += first_delay[waited] * slot
                flag_cont[lane_of[ids2[waited]]] = True
            cca_start = start + first_delay * slot

            past_horizon = cca_start > horizon
            deferred = ~past_horizon & (cca_start >= cap_end)
            scheduled = ~past_horizon & ~deferred
            if past_horizon.any():
                dead[ids2[past_horizon]] = True
            if deferred.any():
                deferred_ids = ids2[deferred]
                dev_now[deferred_ids] = cca_start[deferred]
            event_devices = ids2[scheduled]
            if event_devices.size == 0:
                continue
            flag_cont[lane_of[event_devices]] = True
            cca_sched[event_devices] += 1
            event_times = cca_start[scheduled] + slot

            # ---- phase B: per-lane CCA/TX event merge ----------------------
            if tracing:
                t_merge = perf_counter()
                grid_s += t_merge - t_phase
                t_phase = 0.0
            event_lanes = lane_of[event_devices]
            order = np.lexsort((event_times, event_lanes))
            static_times = event_times[order].tolist()
            static_devices = event_devices[order].tolist()
            lane_starts = np.searchsorted(event_lanes[order],
                                          np.arange(lane_count + 1))
            infinity = float("inf")
            # Terminal writes are batched: transaction endings and horizon
            # kills collect in python lists and land on the numpy arrays
            # once per round, after every lane's merge.
            end_dev: List[int] = []
            end_time: List[float] = []
            kill: List[int] = []
            # Python-list mirror of the whole device axis' draw state —
            # plain list indexing is several times cheaper than numpy
            # scalar indexing on this path; written back once per round so
            # the vectorized phase-A draws see the merged stream positions.
            lr = rptr.tolist()
            lh = half_has.tolist()
            lv = half_val.tolist()
            raws_item = raws.item  # one raw word as a python int
            heap_push = heappush
            heap_pop = heappop
            for lane_index in range(lane_count):
                cursor = int(lane_starts[lane_index])
                stop = int(lane_starts[lane_index + 1])
                if cursor == stop:
                    continue
                heap: List[tuple] = []
                push_seq = 0
                busy_until = busy_end[lane_index]
                lane_transmitted = False
                coordinator_bg = coordinator_bgs[lane_index]
                pool = coordinator_pool[lane_index]
                killed = False
                next_static = static_times[cursor]
                # earliest heap entry's time, mirrored in a local so the
                # hot chain decision is two float compares
                heap_top = infinity
                while True:
                    # static events win ties: they were scheduled first
                    if heap_top < next_static:
                        time_now, _, device, be, nb, cw, att = heap_pop(heap)
                        heap_top = heap[0][0] if heap else infinity
                    elif cursor < stop:
                        # fresh contention attempt begins at its first CCA;
                        # its CSMA state lives in locals (and heap entries
                        # when the device escapes the inline chain)
                        time_now = next_static
                        device = static_devices[cursor]
                        cursor += 1
                        next_static = (static_times[cursor] if cursor < stop
                                       else infinity)
                        be = be0
                        nb = 0
                        cw = cw0
                        att = 0
                    else:
                        break
                    if time_now > horizon:
                        # the kernel cuts the whole queue at the horizon:
                        # every device still owning an event never resumes
                        kill.append(device)
                        kill.extend(static_devices[cursor:stop])
                        while heap:
                            kill.append(heap_pop(heap)[2])
                        break

                    # A device's next CCA sample usually precedes every
                    # other pending event (backoff slots are short against
                    # the contention spread), in which case nothing can
                    # change the channel in between and the sample is
                    # processed inline instead of through the heap.
                    while True:
                        if busy_until > time_now:  # CCA found channel busy
                            nb += 1
                            be += 1
                            if be > be_cap:
                                be = be_cap
                            cw = cw0
                            if nb > max_backoffs:
                                failures[device] += 1
                                end_dev.append(device)
                                end_time.append(time_now)
                                break
                            backoff_from = time_now
                        elif cw > 1:
                            # Clear CCA with window left: sample again one
                            # slot later.  While the samples stay inline
                            # nothing can put a frame on the air
                            # (busy_until <= time_now), so the window
                            # resolves clear back-to-back.
                            cw -= 1
                            if time_now >= cap_end:  # parked at the CAP edge
                                end_dev.append(device)
                                end_time.append(time_now)
                                break
                            cca_loop[device] += 1
                            sample_at = time_now + slot
                            backoff_from = None
                        else:
                            # channel clear through the window: transmit,
                            # unless the transaction no longer fits
                            if time_now + txn_tail > cap_end:
                                end_dev.append(device)
                                end_time.append(time_now)
                                break
                            lane_transmitted = True
                            busy_until = time_now + frame_air
                            # every transmission completes before the
                            # horizon (time_now + txn_tail <= cap_end
                            # <= horizon), so the acknowledgement is
                            # resolved at TX start
                            if not pool:
                                words = coordinator_bg.random_raw(512)
                                pool = ((words >> np.uint64(11))
                                        .astype(np.float64)
                                        * _U53).tolist()
                                pool.reverse()
                                coordinator_pool[lane_index] = pool
                            ack_resume = busy_until + turnaround
                            if pool.pop() >= pe_list[device]:  # acked
                                done = ack_resume + ack_air
                                # float-edge guard: the fit check above
                                # bounds done <= cap_end <= horizon up to
                                # rounding of the beacon grid
                                if done > horizon:  # pragma: no cover
                                    ack_killed.append(device)
                                    kill.append(device)
                                    break
                                delivered[device] += 1
                                delay_sum[device] += done - beacon_at
                                end_dev.append(device)
                                end_time.append(done)
                                break
                            residual_rx[device] += 1
                            retry_at = ack_resume + residual
                            if retry_at > horizon:
                                kill.append(device)
                                break
                            att += 1
                            if att >= max_transmissions:
                                end_dev.append(device)
                                end_time.append(retry_at)
                                break
                            be = be0
                            nb = 0
                            cw = cw0
                            backoff_from = retry_at

                        if backoff_from is not None:
                            # Backoff of a busy CCA or a retry: one
                            # raw-stream draw of ``be`` bits.
                            if be:
                                if lh[device]:
                                    lh[device] = False
                                    word32 = lv[device]
                                else:
                                    pointer = lr[device]
                                    if pointer == _RAW_CHUNK:
                                        raws[device] = device_bgs[device] \
                                            .random_raw(_RAW_CHUNK)
                                        pointer = 0
                                    word = raws_item(device, pointer)
                                    lr[device] = pointer + 1
                                    lv[device] = word >> 32
                                    lh[device] = True
                                    word32 = word & 0xFFFFFFFF
                                step = (word32 >> (32 - be)) * slot
                            else:
                                step = 0.0
                            idle_cont_loop[device] += step
                            next_cca = backoff_from + step
                            if next_cca > horizon:
                                kill.append(device)
                                break
                            if next_cca >= cap_end:
                                end_dev.append(device)
                                end_time.append(next_cca)
                                break
                            cca_loop[device] += 1
                            sample_at = next_cca + slot
                            if sample_at < busy_until:
                                # the frame on the air outlives the new
                                # sample, so its outcome is already decided
                                # (busy) no matter which queued events run
                                # in between — no transmission can start
                                # before busy_until (it needs two clear
                                # CCAs), and other devices never touch this
                                # device's stream or counters.  A retry's
                                # sample always follows its own frame, so
                                # this only fires after a busy CCA.
                                time_now = sample_at
                                continue

                        # continue inline only while this device's sample
                        # strictly precedes every other pending event —
                        # an equal-time event was queued earlier and the
                        # kernel orders ties by scheduling sequence
                        if sample_at < next_static and sample_at < heap_top:
                            if sample_at > horizon:
                                # earliest remaining event past the horizon:
                                # the kernel's cut kills the whole queue
                                kill.append(device)
                                kill.extend(static_devices[cursor:stop])
                                while heap:
                                    kill.append(heap_pop(heap)[2])
                                killed = True
                                break
                            time_now = sample_at
                            continue
                        heap_push(heap,
                                  (sample_at, push_seq, device, be, nb, cw,
                                   att))
                        push_seq += 1
                        if sample_at < heap_top:
                            heap_top = sample_at
                        break
                    if killed:
                        break
                busy_end[lane_index] = busy_until
                if lane_transmitted:
                    flag_tx[lane_index] = True
            rptr[:] = lr
            half_has[:] = lh
            half_val[:] = lv
            if kill:
                dead[kill] = True
            if end_dev:
                dev_now[end_dev] = end_time
            if tracing:
                merge_s += perf_counter() - t_merge

        if tracing:
            t_ledger = perf_counter()
            if t_phase:
                grid_s += t_ledger - t_phase

        # ---- final pre-beacon wake at the horizon --------------------------
        ids = np.nonzero(~dead)[0]
        if ids.size:
            alive_lanes = lane_of[ids]
            flag_sleep[alive_lanes] = True
            now = dev_now[ids]
            wake = np.maximum(horizon - wake_lead, now)
            sleep_t[ids] += wake - now
            wake_beacon[ids] += 1
            idle_beacon_t[ids] += np.maximum(horizon - wake, 0.0)
            beacon_rx[ids] += 1
            flag_beacon[alive_lanes] = True
            # the beacon past the horizon is cut before its traffic is read

        # ---- numpy ledger reduction ----------------------------------------
        power_sd = profile.power_w(RadioState.SHUTDOWN)
        power_idle = profile.power_w(RadioState.IDLE)
        power_rx = profile.power_w(RadioState.RX)
        power_tx = np.array([profile.tx_power_w(level)
                             for level in programmed_flat])
        startup = profile.transition(RadioState.SHUTDOWN, RadioState.IDLE)
        to_rx = profile.transition(RadioState.IDLE, RadioState.RX)
        to_tx = profile.transition(RadioState.IDLE, RadioState.TX)
        from_rx = profile.transition(RadioState.RX, RadioState.IDLE)
        from_tx = profile.transition(RadioState.TX, RadioState.IDLE)

        cca = cca_sched + np.array(cca_loop, dtype=np.int64)
        idle_cont = idle_cont_t + np.array(idle_cont_loop)
        # Ledger identities of the event loop: every transmission is
        # acknowledged or leaves a residual listen, every acknowledgement
        # is a delivery unless the horizon cut the tail, and each
        # transmission dwells exactly one turnaround waiting for the ACK.
        residuals = np.array(residual_rx, dtype=np.int64)
        acks = np.array(delivered, dtype=np.int64)
        if ack_killed:  # pragma: no cover - see the float-edge ack guard
            acks[np.array(ack_killed)] += 1
        tx = acks + residuals
        idle_ack = tx * turnaround

        rx_round_e = to_rx.energy_j + from_rx.energy_j
        rx_round_t = to_rx.duration_s + from_rx.duration_s
        energy_beacon = (wake_beacon * startup.energy_j
                         + idle_beacon_t * power_idle
                         + beacon_rx * (rx_round_e + power_rx * beacon_air))
        energy_cont = (wake_cont * startup.energy_j
                       + idle_cont * power_idle
                       + cca * (rx_round_e + power_rx * slot))
        energy_tx = tx * (to_tx.energy_j + from_tx.energy_j) \
            + tx * power_tx * frame_air
        energy_ack = (idle_ack * power_idle
                      + acks * (rx_round_e + power_rx * ack_air)
                      + residuals * (rx_round_e + power_rx * residual))
        energy_sleep = sleep_t * power_sd
        energy = (energy_beacon + energy_cont + energy_tx + energy_ack
                  + energy_sleep)
        elapsed = (sleep_t
                   + (wake_beacon + wake_cont) * startup.duration_s
                   + idle_beacon_t + idle_cont + idle_ack
                   + beacon_rx * (rx_round_t + beacon_air)
                   + cca * (rx_round_t + slot)
                   + tx * (to_tx.duration_s + from_tx.duration_s + frame_air)
                   + acks * (rx_round_t + ack_air)
                   + residuals * (rx_round_t + residual))
        powers = energy / np.maximum(elapsed, 1e-12)

        summaries = []
        for lane_index in range(lane_count):
            lo = int(bounds[lane_index])
            hi = int(bounds[lane_index + 1])
            phase_energy: Dict[str, float] = {}
            for phase, flag, total in (
                    (PHASE_BEACON, flag_beacon, energy_beacon),
                    (PHASE_CONTENTION, flag_cont, energy_cont),
                    (PHASE_TRANSMIT, flag_tx, energy_tx),
                    (PHASE_ACK, flag_tx, energy_ack),
                    (PHASE_SLEEP, flag_sleep, energy_sleep)):
                if flag[lane_index]:
                    phase_energy[phase] = float(np.sum(total[lo:hi]))
            lane_delivered = sum(delivered[lo:hi])
            lane_tree = lanes[lane_index].tree
            by_depth = None
            if lane_tree is not None:
                by_depth = depth_breakdown(
                    lane_tree,
                    [node.node_id for node in lanes[lane_index].nodes],
                    attempted[lo:hi], delivered[lo:hi], delay_sum[lo:hi],
                    energy[lo:hi], elapsed[lo:hi])
            summaries.append(SimulationSummary(
                simulated_time_s=horizon,
                node_count=hi - lo,
                superframes=superframes,
                packets_attempted=int(attempted[lo:hi].sum()),
                packets_delivered=int(lane_delivered),
                channel_access_failures=int(sum(failures[lo:hi])),
                collisions=0,
                mean_node_power_w=float(np.mean(powers[lo:hi])),
                mean_delivery_delay_s=(sum(delay_sum[lo:hi])
                                       / lane_delivered
                                       if lane_delivered else None),
                energy_by_phase_j=phase_energy,
                by_depth=by_depth,
            ))

        if tracing:
            ledger_s = perf_counter() - t_ledger
            kernel = tracer.record_span(
                "kernel:batched", setup_s + grid_s + merge_s + ledger_s,
                kind="kernel",
                counters={"lanes": lane_count, "devices": n,
                          "rounds": rounds})
            tracer.record_span("setup", setup_s, parent=kernel)
            tracer.record_span("beacon_grid", grid_s, parent=kernel,
                               counters={"attempts": int(attempted.sum())})
            tracer.record_span("contention_merge", merge_s, parent=kernel,
                               counters={"cca": int(cca.sum())})
            tracer.record_span("energy_ledger", ledger_s, parent=kernel)
        return summaries
