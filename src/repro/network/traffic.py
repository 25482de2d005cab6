"""Traffic models: the workloads offered to the dense-network MAC.

The paper's case study assumes one workload — every node senses 1 byte every
8 ms and ships 120-byte packets, one per superframe — but the energy and
reliability model is explicitly a function of the offered load.  This module
makes the traffic shape a first-class axis:

``TrafficModel``
    Frozen, picklable description of a per-node packet process.  A model is
    pure configuration; :meth:`TrafficModel.make_source` builds the stateful
    per-node feed both simulation kernels consume.  Four stochastic shapes
    ship with the paper's periodic source:

    * :class:`SaturatedTraffic` — one packet ready at every beacon, the
      paper's modelling assumption (and the default of every scenario);
    * :class:`PeriodicSensingTraffic` — the byte-accurate periodic sensing
      process (1 byte / 8 ms buffered into 120-byte packets);
    * :class:`PoissonTraffic` — seeded memoryless packet arrivals;
    * :class:`BurstyAlarmTraffic` — rare alarm events depositing large
      packet bursts (seeded Poisson events, geometric burst sizes);
    * :class:`MixedPopulation` — per-node model assignment by fraction,
      deterministic in the node's position (no randomness, so the event and
      batched kernels resolve identical populations).

``TrafficSource``
    The stateful per-node feed: :meth:`TrafficSource.poll` advances the
    arrival process to a simulation time and reports whether a full packet
    is buffered; :meth:`TrafficSource.drain_packet` removes one.  Sources
    conserve bytes (``bytes_deposited == bytes_drained + buffered_bytes``)
    and never emit a packet before ``payload_bytes`` have accumulated —
    properties the test suite checks with hypothesis.  The batched kernel
    reads a fresh source's whole arrival schedule at once instead
    (:meth:`TrafficSource.packet_counts`).

Determinism contract: a source draws only from the generator handed to
``make_source`` (the per-node ``traffic[<id>]`` stream of
:class:`repro.sim.random.RandomStreams`), in arrival-time order, so for the
same master seed the event-driven kernel (which polls at the beacon
instants) and the batched kernel (which reads the schedule at the same
instants) observe byte-identical arrival processes regardless of executor
or backend.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.constants import TRAFFIC_MODEL_KINDS

#: Relative tolerance for sensing events landing exactly on a drain
#: boundary: a sample produced at time ``t`` must be countable by
#: ``deposit_until(t)`` even when ``t`` is not exactly representable
#: (0.96 // 0.008 is 119 in binary floating point, not 120).
_BOUNDARY_EPS = 1e-9


# ---------------------------------------------------------------------------
# per-node sources (stateful; one per node per simulation)
# ---------------------------------------------------------------------------

class TrafficSource(abc.ABC):
    """Stateful per-node packet feed consumed by both MAC kernels.

    Subclasses implement :meth:`_advance` (move the arrival process forward
    in time) and :meth:`packet_counts` (the whole arrival schedule at once)
    and expose :attr:`buffered_bytes`/:attr:`bytes_deposited`; the base
    class provides the kernel-facing protocol — :meth:`poll`,
    :meth:`packet_available`, :meth:`drain_packet` — and the conservation
    bookkeeping.
    """

    def __init__(self, payload_bytes: int, start_time_s: float = 0.0):
        if payload_bytes < 1:
            raise ValueError("payload_bytes must be positive")
        self.payload_bytes = int(payload_bytes)
        self.start_time_s = float(start_time_s)
        self._now_s = float(start_time_s)
        self.packets_drained = 0

    # -- subclass surface ---------------------------------------------------------
    @abc.abstractmethod
    def _advance(self, now_s: float) -> None:
        """Advance the arrival process to ``now_s`` (monotone, guaranteed)."""

    @property
    @abc.abstractmethod
    def buffered_bytes(self) -> int:
        """Bytes currently waiting in the buffer."""

    @property
    @abc.abstractmethod
    def bytes_deposited(self) -> int:
        """Total bytes the arrival process has produced so far."""

    def _on_drain(self) -> None:
        """Hook: remove one payload from the subclass's buffer."""

    @abc.abstractmethod
    def packet_counts(self, times_s: np.ndarray) -> np.ndarray:
        """Whole packets a fresh source has deposited by each poll time.

        ``times_s`` must be ascending.  Entry ``k`` counts every packet the
        source has made drainable by ``times_s[k]``, drained ones included.
        A kernel that drains one packet at each poll finding one therefore
        holds ``queued + counts[k] - counts[k-1]`` packets at poll ``k``,
        and has one to send iff that is at least one.  Consumes the
        source's random stream: call it on a fresh source, instead of
        polling.
        """

    # -- kernel-facing protocol ---------------------------------------------------
    @property
    def bytes_drained(self) -> int:
        """Total bytes removed as full packets."""
        return self.packets_drained * self.payload_bytes

    def advance_to(self, now_s: float) -> None:
        """Advance the arrival process to simulation time ``now_s``."""
        if now_s < self._now_s - 1e-12:
            raise ValueError("Time must not move backwards")
        self._advance(now_s)
        self._now_s = max(self._now_s, now_s)

    def packet_available(self) -> bool:
        """Whether a full payload worth of bytes is buffered."""
        return self.buffered_bytes >= self.payload_bytes

    def poll(self, now_s: float) -> bool:
        """Advance to ``now_s`` and report whether a packet can be drained."""
        self.advance_to(now_s)
        return self.packet_available()

    def drain_packet(self) -> int:
        """Remove one payload from the buffer; returns the payload size.

        Raises
        ------
        RuntimeError
            If no full packet is buffered.
        """
        if not self.packet_available():
            raise RuntimeError("No full packet is buffered")
        self._on_drain()
        self.packets_drained += 1
        return self.payload_bytes


class SaturatedSource(TrafficSource):
    """A packet is ready at every poll — the paper's modelling assumption.

    Deposits are counted at drain time so byte conservation
    (``deposited == drained + buffered``) holds trivially with an always
    empty buffer.
    """

    @property
    def buffered_bytes(self) -> int:
        return 0

    @property
    def bytes_deposited(self) -> int:
        return self.bytes_drained

    def _advance(self, now_s: float) -> None:
        pass

    def packet_available(self) -> bool:
        return True

    def _on_drain(self) -> None:
        pass

    def packet_counts(self, times_s: np.ndarray) -> np.ndarray:
        # one packet per poll keeps the kernel's queue from ever emptying
        return np.arange(1, len(times_s) + 1)


@dataclass
class BufferedTrafficSource(TrafficSource):
    """Stateful byte buffer fed by a periodic sensing process.

    Used by the packet-level simulation: :meth:`deposit_until` advances the
    sensing process to a given simulation time, :meth:`packet_available`
    checks whether a full payload is buffered and :meth:`drain_packet`
    removes it.  A sensing event landing exactly on a superframe boundary
    is countable at that boundary (the division is epsilon-guarded against
    binary floating point: ``0.96 // 0.008`` is 119, not the 120 samples a
    1-byte / 8-ms node has produced by 0.96 s), so the packet it completes
    is drainable in the superframe that starts there.

    ``initial_buffered_bytes`` models a node that has been sensing since
    before the simulation started; :meth:`PeriodicSensingTraffic.make_source`
    primes one full payload so the first superframe carries a packet, the
    paper's steady-state assumption.
    """

    traffic: "PeriodicSensingTraffic" = None  # type: ignore[assignment]
    start_time_s: float = 0.0
    initial_buffered_bytes: int = 0

    def __post_init__(self):
        if self.traffic is None:
            self.traffic = PeriodicSensingTraffic()
        if self.initial_buffered_bytes < 0:
            raise ValueError("initial_buffered_bytes must be non-negative")
        TrafficSource.__init__(self, self.traffic.payload_bytes,
                               start_time_s=self.start_time_s)
        self._buffered_bytes = int(self.initial_buffered_bytes)
        self._last_deposit_time_s = self.start_time_s
        self._samples_deposited = 0

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently waiting in the buffer."""
        return self._buffered_bytes

    @property
    def bytes_deposited(self) -> int:
        return self.initial_buffered_bytes \
            + self._samples_deposited * self.traffic.sample_bytes

    def deposit_until(self, now_s: float) -> int:
        """Deposit every sample produced up to ``now_s``; returns how many.

        A sample whose sensing instant coincides with ``now_s`` counts: data
        available at a superframe boundary is drainable in that superframe.
        """
        if now_s < self._last_deposit_time_s:
            # Tolerate the same sub-1e-12 float jitter advance_to accepts;
            # a genuinely earlier time is still an error.
            if now_s < self._last_deposit_time_s - 1e-12:
                raise ValueError("Time must not move backwards")
            now_s = self._last_deposit_time_s
        elapsed = now_s - self.start_time_s
        interval = self.traffic.sampling_interval_s
        total_samples = int(math.floor(elapsed / interval
                                       + _BOUNDARY_EPS))
        new_samples = total_samples - self._samples_deposited
        if new_samples > 0:
            self._buffered_bytes += new_samples * self.traffic.sample_bytes
            self._samples_deposited = total_samples
        self._last_deposit_time_s = now_s
        return max(0, new_samples)

    def _advance(self, now_s: float) -> None:
        self.deposit_until(now_s)

    def _on_drain(self) -> None:
        self._buffered_bytes -= self.traffic.payload_bytes

    def packet_counts(self, times_s: np.ndarray) -> np.ndarray:
        # deposit_until's sample count, elementwise in the same float order
        traffic = self.traffic
        elapsed = np.asarray(times_s, dtype=float) - self.start_time_s
        samples = np.floor(elapsed / traffic.sampling_interval_s
                           + _BOUNDARY_EPS).astype(np.int64)
        deposited = self.initial_buffered_bytes \
            + np.maximum(samples, 0) * traffic.sample_bytes
        return deposited // traffic.payload_bytes


class PacketQueueSource(TrafficSource):
    """Queue of whole-packet arrivals drawn lazily from a seeded process.

    Subclass hook :meth:`_next_arrival` returns the ``(time, packets)`` of
    the next arrival event strictly after the previous one; arrivals at
    exactly the polled instant count (boundary samples are drainable in the
    superframe that starts there).
    """

    def __init__(self, payload_bytes: int, rng: np.random.Generator,
                 start_time_s: float = 0.0):
        super().__init__(payload_bytes, start_time_s=start_time_s)
        if rng is None:
            raise ValueError(f"{type(self).__name__} needs a random generator")
        self._rng = rng
        self._queued_packets = 0
        self._packets_deposited = 0
        self._next_event_s: Optional[float] = None

    @abc.abstractmethod
    def _next_arrival(self, previous_s: float) -> Tuple[float, int]:
        """Draw the next arrival event after ``previous_s``."""

    @property
    def buffered_bytes(self) -> int:
        return self._queued_packets * self.payload_bytes

    @property
    def bytes_deposited(self) -> int:
        return self._packets_deposited * self.payload_bytes

    def _advance(self, now_s: float) -> None:
        if self._next_event_s is None:
            self._next_event_s, self._pending_packets = \
                self._next_arrival(self.start_time_s)
        while self._next_event_s <= now_s:
            self._queued_packets += self._pending_packets
            self._packets_deposited += self._pending_packets
            self._next_event_s, self._pending_packets = \
                self._next_arrival(self._next_event_s)

    def _on_drain(self) -> None:
        self._queued_packets -= 1

    def packet_counts(self, times_s: np.ndarray) -> np.ndarray:
        # the events _advance would draw on its way to the last poll
        times_s = np.asarray(times_s, dtype=float)
        until_s = times_s[-1] if times_s.size else self.start_time_s
        events: List[float] = []
        deposited = [0]
        event_s, packets = self._next_arrival(self.start_time_s)
        while event_s <= until_s:
            events.append(event_s)
            deposited.append(deposited[-1] + packets)
            event_s, packets = self._next_arrival(event_s)
        return np.array(deposited)[np.searchsorted(events, times_s,
                                                   side="right")]


class _PoissonSource(PacketQueueSource):
    """Memoryless packet arrivals (exponential interarrival times)."""

    def __init__(self, traffic: "PoissonTraffic", rng: np.random.Generator,
                 start_time_s: float = 0.0):
        super().__init__(traffic.payload_bytes, rng, start_time_s=start_time_s)
        self._mean_s = traffic.mean_interval_s

    def _next_arrival(self, previous_s: float) -> Tuple[float, int]:
        return previous_s + float(self._rng.exponential(self._mean_s)), 1

    def packet_counts(self, times_s: np.ndarray) -> np.ndarray:
        # One packet per event, so a count is the number of events so far.
        # ``exponential(size=k)`` yields the variates of k scalar draws, and
        # ``cumsum`` adds each gap to the previous time in sequence, exactly
        # as ``previous_s + gap`` does: the event times are bit-identical.
        times_s = np.asarray(times_s, dtype=float)
        until_s = times_s[-1] if times_s.size else self.start_time_s
        last_s = self.start_time_s
        # the expected event count plus headroom: usually one draw suffices
        size = int(max(0.0, until_s - last_s) / self._mean_s * 1.25) + 8
        chunks = [np.zeros(0)]
        while last_s <= until_s:
            chunk = self._rng.exponential(self._mean_s, size=size)
            chunk[0] += last_s
            chunk.cumsum(out=chunk)
            chunks.append(chunk)
            last_s = chunk[-1]
        return np.concatenate(chunks).searchsorted(times_s, side="right")


class _BurstSource(PacketQueueSource):
    """Rare alarm events depositing geometric bursts of packets."""

    def __init__(self, traffic: "BurstyAlarmTraffic", rng: np.random.Generator,
                 start_time_s: float = 0.0):
        super().__init__(traffic.payload_bytes, rng, start_time_s=start_time_s)
        self._mean_event_s = traffic.mean_event_interval_s
        self._burst_p = 1.0 / traffic.mean_burst_packets

    def _next_arrival(self, previous_s: float) -> Tuple[float, int]:
        gap = float(self._rng.exponential(self._mean_event_s))
        burst = int(self._rng.geometric(self._burst_p))
        return previous_s + gap, burst


# ---------------------------------------------------------------------------
# traffic models (frozen, picklable configuration)
# ---------------------------------------------------------------------------

class TrafficModel(abc.ABC):
    """Declarative description of one per-node packet process.

    Implementations are frozen dataclasses — hashable, picklable, directly
    embeddable in :class:`repro.network.spec.ScenarioSpec` — and carry a
    ``kind`` tag matching :data:`TRAFFIC_MODEL_KINDS`.
    """

    kind: str = "abstract"

    #: Every model names the payload its packets carry.
    payload_bytes: int

    @abc.abstractmethod
    def make_source(self, rng: Optional[np.random.Generator] = None,
                    start_time_s: float = 0.0) -> TrafficSource:
        """Build the stateful per-node feed of this model.

        ``rng`` is the node's dedicated ``traffic[<id>]`` stream; models
        without randomness ignore it.
        """

    def resolve(self, index: int, population: int) -> "TrafficModel":
        """The concrete model node ``index`` of ``population`` runs.

        Homogeneous models return themselves;
        :class:`MixedPopulation` maps positions to components.
        """
        return self

    def require_payload(self, payload_bytes: int, context: str) -> None:
        """Validate that this model feeds ``payload_bytes`` packets.

        Both simulation kernels assume a single frame airtime, so every
        layer embedding a traffic model (:class:`ScenarioSpec`,
        :class:`ChannelScenario`, the batched kernel) enforces the
        agreement through this one check.
        """
        if self.payload_bytes != payload_bytes:
            raise ValueError(
                f"Traffic model carries payload_bytes={self.payload_bytes} "
                f"but {context} simulates {payload_bytes}-byte packets; "
                f"both kernels assume a single frame airtime, so the two "
                f"must agree")


@dataclass(frozen=True)
class SaturatedTraffic(TrafficModel):
    """One packet ready at every beacon — the paper's modelling assumption.

    This is the implicit workload of every scenario that does not configure
    a traffic model: the node always has a buffered packet when a superframe
    starts, so it contends in every contention access period.
    """

    payload_bytes: int = 120

    kind = "saturated"

    def __post_init__(self):
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be positive")

    def make_source(self, rng: Optional[np.random.Generator] = None,
                    start_time_s: float = 0.0) -> TrafficSource:
        return SaturatedSource(self.payload_bytes, start_time_s=start_time_s)


@dataclass(frozen=True)
class PeriodicSensingTraffic(TrafficModel):
    """A node producing ``sample_bytes`` every ``sampling_interval_s``.

    Attributes
    ----------
    sample_bytes:
        Bytes produced per sensing event (1 in the paper).
    sampling_interval_s:
        Time between sensing events (8 ms in the paper).
    payload_bytes:
        Packet payload assembled from buffered samples (120 in the paper).
    """

    sample_bytes: int = 1
    sampling_interval_s: float = 8e-3
    payload_bytes: int = 120

    kind = "periodic"

    def __post_init__(self):
        if self.sample_bytes < 1 or self.payload_bytes < 1:
            raise ValueError("sample_bytes and payload_bytes must be positive")
        if self.sampling_interval_s <= 0:
            raise ValueError("sampling_interval_s must be positive")
        if self.payload_bytes % self.sample_bytes != 0:
            raise ValueError("payload_bytes must be a whole number of samples")

    @property
    def data_rate_bps(self) -> float:
        """Raw sensing data rate (1 kbit/s in the paper)."""
        return self.sample_bytes * 8 / self.sampling_interval_s

    @property
    def samples_per_packet(self) -> int:
        """Sensing events buffered per packet."""
        return self.payload_bytes // self.sample_bytes

    @property
    def packet_period_s(self) -> float:
        """Time to accumulate one full packet (960 ms in the paper)."""
        return self.samples_per_packet * self.sampling_interval_s

    def offered_load(self, nodes: int, channel_bit_rate_bps: float,
                     overhead_bytes: int = 13) -> float:
        """Aggregate on-air load of ``nodes`` such sources on one channel."""
        if nodes < 0:
            raise ValueError("nodes must be non-negative")
        if channel_bit_rate_bps <= 0:
            raise ValueError("channel_bit_rate_bps must be positive")
        packet_bits = (self.payload_bytes + overhead_bytes) * 8
        packets_per_second = 1.0 / self.packet_period_s
        return nodes * packet_bits * packets_per_second / channel_bit_rate_bps

    def buffering_delay_s(self) -> float:
        """Average age of a sample when its packet becomes ready.

        A sample deposited at a uniformly random point of the accumulation
        window waits half the packet period on average.
        """
        return self.packet_period_s / 2.0

    def make_source(self, rng: Optional[np.random.Generator] = None,
                    start_time_s: float = 0.0) -> BufferedTrafficSource:
        """A buffered source primed with one payload (steady-state start).

        The node is assumed to have been sensing since before the
        simulation started, so the first superframe already carries a
        packet — the paper's steady-state picture.  Build
        :class:`BufferedTrafficSource` directly for a cold (empty-buffer)
        start.
        """
        return BufferedTrafficSource(
            traffic=self, start_time_s=start_time_s,
            initial_buffered_bytes=self.payload_bytes)


@dataclass(frozen=True)
class PoissonTraffic(TrafficModel):
    """Seeded memoryless packet arrivals (event-driven sensing).

    Attributes
    ----------
    mean_interval_s:
        Expected time between packet completions (0.96 s matches the
        paper's periodic rate).
    payload_bytes:
        Payload of every packet.
    """

    mean_interval_s: float = 0.96
    payload_bytes: int = 120

    kind = "poisson"

    def __post_init__(self):
        if self.mean_interval_s <= 0:
            raise ValueError("mean_interval_s must be positive")
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be positive")

    def make_source(self, rng: Optional[np.random.Generator] = None,
                    start_time_s: float = 0.0) -> TrafficSource:
        return _PoissonSource(self, rng, start_time_s=start_time_s)


@dataclass(frozen=True)
class BurstyAlarmTraffic(TrafficModel):
    """Rare alarm events depositing large packet bursts.

    Alarm instants form a seeded Poisson process with mean spacing
    ``mean_event_interval_s``; each alarm queues a geometric number of
    packets with mean ``mean_burst_packets`` (support >= 1).  Between alarms
    the node is silent — the regime the paper's always-loaded model cannot
    express.
    """

    mean_event_interval_s: float = 15.36
    mean_burst_packets: float = 4.0
    payload_bytes: int = 120

    kind = "bursty"

    def __post_init__(self):
        if self.mean_event_interval_s <= 0:
            raise ValueError("mean_event_interval_s must be positive")
        if self.mean_burst_packets < 1.0:
            raise ValueError("mean_burst_packets must be at least 1")
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be positive")

    def make_source(self, rng: Optional[np.random.Generator] = None,
                    start_time_s: float = 0.0) -> TrafficSource:
        return _BurstSource(self, rng, start_time_s=start_time_s)


@dataclass(frozen=True)
class MixedPopulation(TrafficModel):
    """Per-node traffic models assigned by population fraction.

    ``components`` maps fractions to models, e.g. 75 % periodic sensors and
    25 % bursty alarms.  Assignment is positional and deterministic: the
    fractions are turned into whole-node counts by largest remainder and
    laid out over the node list in component order, so both simulation
    kernels (and any executor layout) resolve the identical population
    without consuming randomness.  All components must share one payload
    size — the slot-level kernel relies on a single frame airtime.
    """

    components: Tuple[Tuple[float, TrafficModel], ...] = ()

    kind = "mixed"

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("MixedPopulation needs at least one component")
        fractions = [fraction for fraction, _ in self.components]
        if any(f < 0 for f in fractions):
            raise ValueError("Component fractions must be non-negative")
        if not math.isclose(sum(fractions), 1.0, abs_tol=1e-9):
            raise ValueError(f"Component fractions must sum to 1, "
                             f"got {sum(fractions)!r}")
        for _, model in self.components:
            if isinstance(model, MixedPopulation):
                raise ValueError("MixedPopulation components must be "
                                 "concrete models, not nested mixes")
        payloads = {model.payload_bytes for _, model in self.components}
        if len(payloads) != 1:
            raise ValueError(
                "All components of a MixedPopulation must share one "
                f"payload size (the slot-level kernel assumes a single "
                f"frame airtime); got {sorted(payloads)}")

    @property
    def payload_bytes(self) -> int:  # type: ignore[override]
        return self.components[0][1].payload_bytes

    def component_counts(self, population: int) -> List[int]:
        """Whole-node allocation of ``population`` over the components.

        Largest-remainder rounding: every component gets the floor of its
        share, leftovers go to the largest fractional parts (earlier
        components win ties), so counts always sum to ``population``.
        """
        if population < 0:
            raise ValueError("population must be non-negative")
        shares = [fraction * population for fraction, _ in self.components]
        counts = [int(math.floor(share + _BOUNDARY_EPS)) for share in shares]
        leftover = population - sum(counts)
        remainders = sorted(range(len(shares)),
                            key=lambda i: (counts[i] - shares[i], i))
        for i in range(leftover):
            counts[remainders[i]] += 1
        return counts

    def resolve(self, index: int, population: int) -> TrafficModel:
        """The component model node ``index`` of ``population`` runs."""
        if not 0 <= index < population:
            raise ValueError(f"index {index} outside population "
                             f"0..{population - 1}")
        boundary = 0
        counts = self.component_counts(population)
        for count, (_, model) in zip(counts, self.components):
            boundary += count
            if index < boundary:
                return model
        raise AssertionError("unreachable: counts sum to population")

    def make_source(self, rng: Optional[np.random.Generator] = None,
                    start_time_s: float = 0.0) -> TrafficSource:
        raise TypeError("MixedPopulation is resolved per node: call "
                        "resolve(index, population).make_source(...) "
                        "instead")


def make_node_sources(model: TrafficModel, node_ids: "List[int]",
                      streams) -> List[TrafficSource]:
    """One per-node feed per node id, aligned with ``node_ids``.

    Each source draws only from its node's dedicated ``traffic[<id>]``
    stream of ``streams`` (:class:`repro.sim.random.RandomStreams`), so
    both MAC kernels — which poll sources at identical beacon instants —
    observe byte-identical arrival processes for the same master seed.
    """
    population = len(node_ids)
    return [model.resolve(index, population).make_source(
                rng=streams.get(f"traffic[{node_id}]"))
            for index, node_id in enumerate(node_ids)]


# ---------------------------------------------------------------------------
# factory (the experiment-parameter surface)
# ---------------------------------------------------------------------------

#: Alarm events arrive this many packet periods apart in the default
#: bursty model (rare events relative to the periodic baseline).
BURST_EVENT_PERIODS = 16.0

#: Mean packets per alarm burst in the default bursty model.
BURST_MEAN_PACKETS = 4.0


def build_traffic_model(name: str, payload_bytes: int = 120,
                        rate_scale: float = 1.0,
                        mix_fraction: float = 0.25,
                        sample_bytes: int = 1,
                        sampling_interval_s: float = 8e-3) -> TrafficModel:
    """Build a registered traffic model from flat experiment parameters.

    Parameters
    ----------
    name:
        One of :data:`TRAFFIC_MODEL_KINDS`.
    payload_bytes:
        Packet payload of every model.
    rate_scale:
        Scales the mean packet rate of the stochastic models relative to the
        paper's periodic baseline (``payload_bytes`` samples of
        ``sample_bytes`` every ``sampling_interval_s``); 2.0 offers twice
        the load, 0.5 half.  Ignored by ``"saturated"``.
    mix_fraction:
        Fraction of bursty-alarm nodes in the ``"mixed"`` population (the
        remainder run the periodic sensing source).
    sample_bytes / sampling_interval_s:
        Sensing process of the periodic component.
    """
    if name not in TRAFFIC_MODEL_KINDS:
        raise ValueError(f"Unknown traffic model {name!r}; choose one of "
                         f"{', '.join(TRAFFIC_MODEL_KINDS)}")
    if rate_scale <= 0:
        raise ValueError("rate_scale must be positive")
    if not 0.0 <= mix_fraction <= 1.0:
        raise ValueError("mix_fraction must lie in [0, 1]")
    if name == "saturated":
        return SaturatedTraffic(payload_bytes=payload_bytes)

    periodic = PeriodicSensingTraffic(
        sample_bytes=sample_bytes,
        sampling_interval_s=sampling_interval_s / rate_scale,
        payload_bytes=payload_bytes)
    if name == "periodic":
        return periodic
    base_period_s = periodic.packet_period_s
    if name == "poisson":
        return PoissonTraffic(mean_interval_s=base_period_s,
                              payload_bytes=payload_bytes)
    bursty = BurstyAlarmTraffic(
        mean_event_interval_s=BURST_EVENT_PERIODS * base_period_s,
        mean_burst_packets=BURST_MEAN_PACKETS,
        payload_bytes=payload_bytes)
    if name == "bursty":
        return bursty
    if mix_fraction == 0.0:
        return periodic
    if mix_fraction == 1.0:
        return bursty
    return MixedPopulation(components=((1.0 - mix_fraction, periodic),
                                       (mix_fraction, bursty)))
