"""Shared wireless medium for the packet-level MAC simulation.

One :class:`Medium` instance models one RF channel of the star network: it
tracks ongoing transmissions so that

* clear channel assessments see the channel busy while any frame is on air,
* two overlapping data frames collide (both are lost — the paper's residual
  collision probability Pr_col), and
* a frame that does not collide can still be corrupted by bit errors,
  decided by the per-link AWGN model.

The coordinator is assumed to hear every node (single-hop star, all nodes
within range), so capture effects are not modelled: any overlap destroys
both frames, which is the same worst-case convention as the paper's
Monte-Carlo contention characterisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.engine import Environment


@dataclass
class Transmission:
    """One frame currently (or previously) on the air."""

    source: int
    start_s: float
    end_s: float
    frame: object
    tx_power_dbm: float
    collided: bool = False

    def overlaps(self, other: "Transmission") -> bool:
        """Whether two transmissions overlap in time."""
        return self.start_s < other.end_s and other.start_s < self.end_s


class Medium:
    """A single half-duplex broadcast channel.

    Parameters
    ----------
    env:
        Simulation environment providing the clock.
    channel:
        RF channel number (informational).
    """

    def __init__(self, env: Environment, channel: int = 11):
        self.env = env
        self.channel = channel
        self._active: List[Transmission] = []
        self.collision_count = 0
        self.transmission_count = 0

    # -- channel state ----------------------------------------------------------
    def is_busy(self) -> bool:
        """Whether any transmission is on air now."""
        now = self.env.now
        self._expire(now)
        return any(t.start_s <= now < t.end_s for t in self._active)

    def _expire(self, now: float) -> None:
        self._active = [t for t in self._active if t.end_s > now]

    # -- transmissions --------------------------------------------------------------
    def start_transmission(self, source: int, duration_s: float, frame: object,
                           tx_power_dbm: float) -> Transmission:
        """Register a frame going on air now; collisions are marked eagerly."""
        now = self.env.now
        self._expire(now)
        transmission = Transmission(
            source=source,
            start_s=now,
            end_s=now + duration_s,
            frame=frame,
            tx_power_dbm=tx_power_dbm,
        )
        for other in self._active:
            if other.overlaps(transmission):
                if not other.collided:
                    other.collided = True
                if not transmission.collided:
                    transmission.collided = True
        if transmission.collided:
            self.collision_count += 1
        self._active.append(transmission)
        self.transmission_count += 1
        return transmission
