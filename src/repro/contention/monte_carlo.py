"""Slot-accurate Monte-Carlo simulation of the contention access period.

The simulator reproduces how the paper characterised the slotted CSMA/CA
procedure (Figure 6): a population of nodes (100 per channel in the paper)
each attempt to transmit one packet per superframe; their contention
procedures interact through the shared channel, producing the average
contention time ``T_cont``, average CCA count ``N_CCA``, residual collision
probability ``Pr_col`` and channel access failure probability ``Pr_cf`` as
functions of the network load λ and the packet duration.

Modelling choices (documented because the paper does not spell them out):

* Nodes start their contention procedures at times uniformly distributed
  over the inter-beacon window: a node that gathers data continuously has
  its packet ready at an essentially random point of the superframe.
* The window length is derived from the load: ``window = N x T_packet / λ``,
  so that the aggregate offered airtime equals λ times the channel capacity.
* A transmission occupies the channel for the packet airtime plus the
  acknowledgement turnaround and the acknowledgement itself (other nodes'
  CCAs see the whole transaction as busy).
* Two transmissions starting in the same backoff slot collide and both are
  lost; there is no capture effect (worst case, consistent with the paper).
* The event granularity is one backoff slot (320 µs), exactly the
  granularity at which the slotted CSMA/CA algorithm operates.

Implementation: one window is a single inlined slot-event loop over plain
per-node lists (NB, BE, CW and the attempt counters), not a population of
:class:`repro.mac.csma.SlottedCsmaCa` machines.  It applies the machine's
rules and makes the same random draws in the same order, so the results are
those of driving one machine per node.  The nodes' first backoff delays come
from one array draw, which consumes the generator's stream exactly as the
machines' per-node scalar draws do.  ``tests/contention/test_window_oracle.py``
keeps the machine-driven loop as the reference and checks both claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.contention.statistics import ContentionStatistics, merge_statistics
from repro.mac.constants import MAC_2450MHZ, MacConstants
from repro.mac.csma import CsmaParameters
from repro.mac.frames import AckFrame
from repro.sim.random import spawn_seeds


@dataclass
class NodeAttempt:
    """Per-node outcome of one contention window."""

    node_id: int
    arrival_slot: int
    finish_slot: Optional[int] = None
    transmit_slot: Optional[int] = None
    cca_count: int = 0
    backoff_slots: int = 0
    access_granted: bool = False
    collided: bool = False

    @property
    def contention_slots(self) -> Optional[int]:
        """Slots from arrival to channel acquisition (or abandonment)."""
        if self.finish_slot is None:
            return None
        return self.finish_slot - self.arrival_slot


@dataclass
class WindowResult:
    """All node attempts of one simulated contention window."""

    window_slots: int
    packet_slots: int
    attempts: List[NodeAttempt] = field(default_factory=list)

    @property
    def transmissions(self) -> int:
        """Number of nodes that acquired the channel."""
        return sum(1 for a in self.attempts if a.access_granted)

    @property
    def collisions(self) -> int:
        """Number of transmissions that collided."""
        return sum(1 for a in self.attempts if a.access_granted and a.collided)

    @property
    def access_failures(self) -> int:
        """Number of channel access failures."""
        return sum(1 for a in self.attempts if not a.access_granted)


#: Per-node columns of one window, in node order: arrival, finish and
#: transmit slots, CCA count, backoff slots, access granted, collided.
_WindowColumns = Tuple[List[int], List[int], List[Optional[int]], List[int],
                       List[int], List[bool], List[bool]]


class ContentionSimulator:
    """Monte-Carlo simulator of the slotted CSMA/CA contention procedure.

    Parameters
    ----------
    num_nodes:
        Contending nodes per window (100 in the paper's characterisation).
    csma_params:
        Slotted CSMA/CA parameters (paper convention by default).
    constants:
        MAC constants (timing).
    seed:
        Master seed of the simulator's random generator.
    """

    #: Event ordering within a slot: transmissions become visible before CCAs.
    _EVENT_TX_START = 0
    _EVENT_CCA = 1

    def __init__(self, num_nodes: int = 100,
                 csma_params: Optional[CsmaParameters] = None,
                 constants: MacConstants = MAC_2450MHZ,
                 seed: int = 0):
        if num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        self.num_nodes = num_nodes
        self.csma_params = csma_params or CsmaParameters.from_mac_constants(constants)
        self.constants = constants
        self.rng = np.random.default_rng(seed)

    # -- unit helpers ----------------------------------------------------------------
    def packet_slots(self, packet_bytes: int) -> int:
        """On-air packet duration in whole backoff slots (rounded up)."""
        airtime = packet_bytes * self.constants.timing.byte_period_s
        return max(1, math.ceil(airtime / self.constants.unit_backoff_period_s))

    def occupancy_slots(self, packet_bytes: int) -> int:
        """Channel-busy duration of one transaction in backoff slots."""
        ack_airtime = (self.constants.turnaround_time_s
                       + AckFrame().airtime_s(self.constants.timing.byte_period_s))
        return self.packet_slots(packet_bytes) + math.ceil(
            ack_airtime / self.constants.unit_backoff_period_s)

    def window_slots_for_load(self, load: float, packet_bytes: int) -> int:
        """Window length so the offered airtime equals ``load`` x capacity."""
        if not 0.0 < load <= 1.5:
            raise ValueError("Load must lie in (0, 1.5]")
        packet_airtime_slots = (packet_bytes * self.constants.timing.byte_period_s
                                / self.constants.unit_backoff_period_s)
        return max(1, int(round(self.num_nodes * packet_airtime_slots / load)))

    # -- single window ------------------------------------------------------------------
    def simulate_window(self, packet_bytes: int, window_slots: int) -> WindowResult:
        """Simulate one contention window and return every node's outcome."""
        columns = self._run_window(packet_bytes, window_slots)
        return WindowResult(window_slots=window_slots,
                            packet_slots=self.packet_slots(packet_bytes),
                            attempts=list(map(NodeAttempt, range(self.num_nodes),
                                              *columns)))

    def _run_window(self, packet_bytes: int, window_slots: int) -> _WindowColumns:
        """The slot-event loop of one window, returning per-node columns.

        Events are ``(slot, kind, push sequence, node)`` heap entries, so
        transmission starts become visible before the CCAs of their slot and
        ties resolve in push order.  Every CCA, clear or busy, counts towards
        ``cca_count``; every backoff delay, the first included, counts towards
        ``backoff_slots``.
        """
        if window_slots < 1:
            raise ValueError("window_slots must be at least 1")
        n = self.num_nodes
        params = self.csma_params
        integers = self.rng.integers
        occupancy = self.occupancy_slots(packet_bytes)
        window_cw = params.contention_window
        max_backoffs = params.max_csma_backoffs
        clamp = params.clamp_backoff_exponent
        tx_start, cca = self._EVENT_TX_START, self._EVENT_CCA

        arrival = integers(0, window_slots, size=n).tolist()
        be0 = params.initial_backoff_exponent()
        # One array draw of the n first backoffs consumes the stream exactly
        # as n scalar ``integers(0, 2**BE)`` calls in node order: numpy fills
        # an array element by element through the same buffered 32-bit Lemire
        # draw, and draws nothing for a range of one (BE = 0).
        backoff = integers(0, 2 ** be0, size=n).tolist()
        nb = [0] * n
        be = [be0] * n
        cw = [window_cw] * n
        cca_count = [0] * n
        finish: List[int] = [0] * n
        transmit: List[Optional[int]] = [None] * n
        granted = [False] * n
        collided = [False] * n

        heap = [(arrival[i] + backoff[i], cca, i, i) for i in range(n)]
        heapify(heap)
        sequence = n
        busy_until = -1  # last busy slot of the latest transmission
        on_air: List[Tuple[int, int]] = []  # (end slot, node), maybe on air

        while heap:
            slot, kind, _, node = heappop(heap)
            if kind == tx_start:
                # A transmission starting while the channel is occupied (in
                # particular: another one starting in the same slot) collides
                # with every overlapping transmission.
                on_air = [entry for entry in on_air if entry[0] >= slot]
                if on_air:
                    collided[node] = True
                    for _, other in on_air:
                        collided[other] = True
                # Transmissions start in slot order and last equally long,
                # so the latest one ends last.
                busy_until = slot + occupancy - 1
                on_air.append((busy_until, node))
                finish[node] = transmit[node] = slot
                granted[node] = True
                continue

            cca_count[node] += 1
            if busy_until >= slot:
                nb[node] += 1
                if nb[node] > max_backoffs:
                    finish[node] = slot  # channel access failure
                    continue
                cw[node] = window_cw
                be[node] = clamp(be[node] + 1)
                delay = int(integers(0, 2 ** be[node]))
                backoff[node] += delay
                heappush(heap, (slot + 1 + delay, cca, sequence, node))
            elif cw[node] > 1:
                cw[node] -= 1
                heappush(heap, (slot + 1, cca, sequence, node))
            else:
                heappush(heap, (slot + 1, tx_start, sequence, node))
            sequence += 1

        return arrival, finish, transmit, cca_count, backoff, granted, collided

    # -- characterisation --------------------------------------------------------------
    def characterize(self, load: float, packet_bytes: int,
                     num_windows: int = 40) -> ContentionStatistics:
        """Estimate the four contention quantities at one (load, size) point.

        Parameters
        ----------
        load:
            Network load λ.
        packet_bytes:
            Total on-air packet size (PHY + MAC + payload).
        num_windows:
            Number of independent contention windows to simulate.
        """
        if num_windows < 1:
            raise ValueError("num_windows must be at least 1")
        window_slots = self.window_slots_for_load(load, packet_bytes)
        slot_s = self.constants.unit_backoff_period_s

        parts: List[ContentionStatistics] = []
        for _ in range(num_windows):
            arrival, finish, _, cca_count, backoff, granted, collided = \
                self._run_window(packet_bytes, window_slots)
            parts.append(_reduce_window(arrival, finish, cca_count, backoff,
                                        granted, collided, load=load,
                                        packet_bytes=packet_bytes,
                                        slot_s=slot_s))
        return merge_statistics(parts)


def window_statistics(window: WindowResult, load: float, packet_bytes: int,
                      slot_s: float) -> ContentionStatistics:
    """Aggregate one simulated window into a :class:`ContentionStatistics`.

    An attempt without a ``finish_slot`` counts towards every quantity except
    the mean contention time.
    """
    attempts = window.attempts
    return _reduce_window(
        [a.arrival_slot for a in attempts],
        [-1 if a.finish_slot is None else a.finish_slot for a in attempts],
        [a.cca_count for a in attempts],
        [a.backoff_slots for a in attempts],
        [a.access_granted for a in attempts],
        [a.collided for a in attempts],
        load=load, packet_bytes=packet_bytes, slot_s=slot_s)


def _reduce_window(arrival: Sequence[int], finish: Sequence[int],
                   cca_count: Sequence[int], backoff_slots: Sequence[int],
                   granted: Sequence[bool], collided: Sequence[bool], *,
                   load: float, packet_bytes: int,
                   slot_s: float) -> ContentionStatistics:
    """Reduce one window's per-node columns (finish ``-1``: unfinished).

    The columns become flat numpy arrays once and every mean/count is
    computed from them; the numbers are identical to the element-wise
    definition.
    """
    n = len(arrival)
    finish = np.array(finish, dtype=np.int64)
    finished = finish >= 0
    contention_slots = (finish - np.array(arrival, dtype=np.int64))[finished]
    granted = np.array(granted, dtype=bool)
    transmissions = int(np.count_nonzero(granted))
    collisions = int(np.count_nonzero(granted & np.array(collided, dtype=bool)))
    access_failures = n - transmissions

    return ContentionStatistics(
        load=load,
        packet_bytes=packet_bytes,
        mean_contention_time_s=(float(contention_slots.mean()) * slot_s
                                if contention_slots.size else 0.0),
        mean_cca_count=float(np.array(cca_count, dtype=np.int64).mean()),
        collision_probability=(collisions / transmissions
                               if transmissions else 0.0),
        channel_access_failure_probability=access_failures / n,
        mean_backoff_slots=float(np.array(backoff_slots, dtype=np.int64).mean()),
        samples=n,
    )


@dataclass(frozen=True)
class GridPointTask:
    """Picklable description of one (load, packet size) characterisation.

    The experiment engine fans these tasks out to worker processes; each
    carries its own ``seed`` (derived via :func:`repro.sim.random.spawn_seeds`)
    so the statistics of a grid point are independent of which worker — or
    how many workers — executed it.

    Attributes
    ----------
    load / packet_bytes / num_windows:
        The characterisation point, as in :meth:`ContentionSimulator.characterize`.
    num_nodes:
        Contending nodes, as in :class:`ContentionSimulator`.
    seed:
        Master seed of this point's private simulator.
    """

    load: float
    packet_bytes: int
    num_windows: int
    num_nodes: int
    seed: int


def characterize_point(task: GridPointTask) -> ContentionStatistics:
    """Characterise one grid point with its own freshly seeded simulator.

    The task function of :func:`characterize_grid`'s executor fan-out.
    """
    simulator = ContentionSimulator(num_nodes=task.num_nodes, seed=task.seed)
    return simulator.characterize(task.load, task.packet_bytes,
                                  num_windows=task.num_windows)


def characterize_grid(points, num_windows: int = 30, num_nodes: int = 100,
                      seed: int = 0, executor=None,
                      stream_name: str = "contention.grid"
                      ) -> List[ContentionStatistics]:
    """Characterise many (load, packet size) points, optionally in parallel.

    Parameters
    ----------
    points:
        Sequence of ``(load, packet_bytes)`` pairs.
    num_windows / num_nodes:
        Shared simulator configuration, see :class:`ContentionSimulator`.
    seed:
        Master seed; point ``i`` receives the ``i``-th child seed of
        ``spawn_seeds(seed, stream_name, len(points))``, making the result
        list bit-identical for the serial and process executors.
    executor:
        A :mod:`repro.runner.executor` strategy; ``None`` runs serially.
    stream_name:
        Seed-stream label, so different grids of the same experiment draw
        unrelated seeds.

    Returns
    -------
    list of ContentionStatistics
        One entry per input point, in input order.
    """
    from repro.runner.executor import run_ordered

    points = [(float(load), int(size)) for load, size in points]
    seeds = spawn_seeds(seed, stream_name, len(points))
    tasks = [GridPointTask(load=load, packet_bytes=size,
                           num_windows=num_windows, num_nodes=num_nodes,
                           seed=point_seed)
             for (load, size), point_seed in zip(points, seeds)]
    return run_ordered(executor, characterize_point, tasks)
