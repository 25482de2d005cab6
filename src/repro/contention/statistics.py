"""Result containers for the contention characterisation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ContentionStatistics:
    """The four contention quantities consumed by the energy model.

    Attributes
    ----------
    load:
        Network load λ (aggregate airtime relative to the channel capacity).
    packet_bytes:
        Total on-air packet size (PHY + MAC overhead + payload) the
        characterisation was run for.
    mean_contention_time_s:
        ``T_cont`` — average time from the start of a node's contention
        procedure until it acquires the channel (or gives up), excluding the
        transmission itself.
    mean_cca_count:
        ``N_CCA`` — average number of clear channel assessments per attempt.
    collision_probability:
        ``Pr_col`` — probability a transmitted packet overlaps another
        node's transmission.
    channel_access_failure_probability:
        ``Pr_cf`` — probability the contention procedure aborts after
        exhausting its backoff attempts.
    mean_backoff_slots:
        Average number of backoff slots spent in random delays (informational).
    samples:
        Number of per-node contention attempts the statistics are based on.
    """

    load: float
    packet_bytes: int
    mean_contention_time_s: float
    mean_cca_count: float
    collision_probability: float
    channel_access_failure_probability: float
    mean_backoff_slots: float = 0.0
    samples: int = 0

    def __post_init__(self):
        for name in ("collision_probability",
                     "channel_access_failure_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.mean_contention_time_s < 0 or self.mean_cca_count < 0:
            raise ValueError("Contention time and CCA count must be non-negative")


def merge_statistics(parts: Sequence[ContentionStatistics]) -> ContentionStatistics:
    """Sample-weighted merge of statistics from independent replications.

    Raises
    ------
    ValueError
        If the sequence is empty or mixes different (load, packet size) points.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("Cannot merge an empty sequence of statistics")
    load = parts[0].load
    packet_bytes = parts[0].packet_bytes
    for part in parts:
        if not math.isclose(part.load, load, rel_tol=1e-9) \
                or part.packet_bytes != packet_bytes:
            raise ValueError("All merged statistics must describe the same "
                             "(load, packet size) point")
    total = sum(max(p.samples, 1) for p in parts)

    def weighted(attr: str) -> float:
        return sum(getattr(p, attr) * max(p.samples, 1) for p in parts) / total

    return ContentionStatistics(
        load=load,
        packet_bytes=packet_bytes,
        mean_contention_time_s=weighted("mean_contention_time_s"),
        mean_cca_count=weighted("mean_cca_count"),
        collision_probability=weighted("collision_probability"),
        channel_access_failure_probability=weighted(
            "channel_access_failure_probability"),
        mean_backoff_slots=weighted("mean_backoff_slots"),
        samples=sum(p.samples for p in parts),
    )
