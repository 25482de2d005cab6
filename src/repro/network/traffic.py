"""Traffic models: the workloads offered to the dense-network MAC.

The paper's case study assumes one workload — every node senses 1 byte every
8 ms and ships 120-byte packets, one per superframe — but the energy and
reliability model is explicitly a function of the offered load.  This module
makes the traffic shape a first-class axis.

A :class:`TrafficModel` is a frozen, picklable description of a per-node
packet process, and :meth:`TrafficModel.packet_counts` is its arrival
schedule: the whole packets a node has been offered by each given time.
Four shapes ship with the paper's periodic source:

* :class:`SaturatedTraffic` — one packet ready at every beacon, the
  paper's modelling assumption (and the default of every scenario);
* :class:`PeriodicSensingTraffic` — the byte-accurate periodic sensing
  process (1 byte / 8 ms buffered into 120-byte packets);
* :class:`PoissonTraffic` — seeded memoryless packet arrivals;
* :class:`BurstyAlarmTraffic` — rare alarm events depositing large
  packet bursts (seeded Poisson events, geometric burst sizes);
* :class:`MixedPopulation` — per-node model assignment by fraction,
  deterministic in the node's position (no randomness, so both kernels
  resolve identical populations).

Both MAC kernels read a lane's schedules through one function,
:func:`repro.network.routing.lane_arrivals`, which adds a relay's
forwarded load.  A schedule draws only from the generator it is handed
(the node's ``traffic[<id>]`` stream of
:class:`repro.sim.random.RandomStreams`, or a replica of it), in
arrival-time order, so for the same master seed both kernels see
byte-identical arrivals regardless of executor or backend.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.constants import TRAFFIC_MODEL_KINDS

#: Relative tolerance for sensing events landing exactly on a beacon: a
#: sample produced at time ``t`` must count at ``t`` even when
#: ``t`` is not exactly representable (0.96 // 0.008 is 119 in binary
#: floating point, not 120).
_BOUNDARY_EPS = 1e-9


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
    def packet_counts(self, times_s: np.ndarray,
                      rng: Optional[np.random.Generator]) -> np.ndarray:
        """Whole packets one node has been offered by each of ``times_s``.

        ``times_s`` must be ascending and start at or after 0, when the
        process starts.  Entry ``k`` counts every packet the node can
        send by ``times_s[k]``; data arriving exactly at one of the times
        counts there.  A kernel that sends one packet at each beacon
        finding one therefore holds ``queued + counts[k] - counts[k-1]``
        packets at beacon ``k``, and has one to send iff that is at least
        one.  ``rng`` is the node's ``traffic[<id>]`` stream (or a
        replica of it); models without randomness ignore it.  Entries
        never depend on later times: a longer schedule extends a shorter
        one.
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
        layer embedding a traffic model (:class:`ScenarioSpec` and the
        kernels' shared input,
        :class:`repro.mac.vectorized.ChannelSimulator`) enforces the
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

    def packet_counts(self, times_s: np.ndarray,
                      rng: Optional[np.random.Generator]) -> np.ndarray:
        # one packet per beacon keeps the kernel's queue from ever emptying
        return np.arange(1, len(times_s) + 1)


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

    def buffering_delay_s(self) -> float:
        """Average age of a sample when its packet becomes ready.

        A sample deposited at a uniformly random point of the accumulation
        window waits half the packet period on average.
        """
        return self.packet_period_s / 2.0

    def packet_counts(self, times_s: np.ndarray,
                      rng: Optional[np.random.Generator]) -> np.ndarray:
        """Full payloads buffered by each time, one payload primed.

        The node is assumed to have been sensing since before the
        simulation started, so the first superframe already carries a
        packet — the paper's steady-state picture.  A sample landing
        exactly on one of the times counts there (the division is
        epsilon-guarded against binary floating point).
        """
        samples = np.floor(np.asarray(times_s, dtype=float)
                           / self.sampling_interval_s
                           + _BOUNDARY_EPS).astype(np.int64)
        deposited = self.payload_bytes \
            + np.maximum(samples, 0) * self.sample_bytes
        return deposited // self.payload_bytes


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

    def packet_counts(self, times_s: np.ndarray,
                      rng: Optional[np.random.Generator]) -> np.ndarray:
        # One packet per event, so a count is the number of events so far.
        # ``exponential(size=k)`` yields the variates of k scalar draws, and
        # ``cumsum`` adds each gap to the previous event time in sequence:
        # the event times do not depend on how the draws are chunked.
        times_s = np.asarray(times_s, dtype=float)
        until_s = times_s[-1] if times_s.size else 0.0
        last_s = 0.0
        # the expected event count plus headroom: usually one draw suffices
        size = int(max(0.0, until_s) / self.mean_interval_s * 1.25) + 8
        chunks = [np.zeros(0)]
        while last_s <= until_s:
            chunk = rng.exponential(self.mean_interval_s, size=size)
            chunk[0] += last_s
            chunk.cumsum(out=chunk)
            chunks.append(chunk)
            last_s = chunk[-1]
        return np.concatenate(chunks).searchsorted(times_s, side="right")


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

    def packet_counts(self, times_s: np.ndarray,
                      rng: Optional[np.random.Generator]) -> np.ndarray:
        # each alarm draws its gap, then its burst: scalar draws, in order
        times_s = np.asarray(times_s, dtype=float)
        until_s = times_s[-1] if times_s.size else 0.0
        burst_p = 1.0 / self.mean_burst_packets
        events: List[float] = []
        deposited = [0]
        event_s = 0.0
        while True:
            event_s += float(rng.exponential(self.mean_event_interval_s))
            burst = int(rng.geometric(burst_p))
            if event_s > until_s:
                break
            events.append(event_s)
            deposited.append(deposited[-1] + burst)
        return np.array(deposited)[np.searchsorted(events, times_s,
                                                   side="right")]


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

    def packet_counts(self, times_s: np.ndarray,
                      rng: Optional[np.random.Generator]) -> np.ndarray:
        raise TypeError("MixedPopulation is resolved per node: call "
                        "resolve(index, population).packet_counts(...) "
                        "instead")


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
