"""Path-loss models and path-loss distributions for scenario generation.

The energy model consumes a *path loss* ``A`` in dB (equation 2 of the paper:
``P_Rx = P_Tx - A``), so two kinds of objects are provided:

* deterministic distance -> attenuation models (free space, log-distance)
  used when nodes are placed geometrically, and
* path-loss *distributions* used when — like the paper's case study — the
  scenario is specified directly by a distribution of attenuations
  ("path loss distributed uniformly between 55 and 95 dB").
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Speed of light [m/s].
SPEED_OF_LIGHT_M_PER_S = 299_792_458.0


class PathLossModel(ABC):
    """Maps a transmitter-receiver distance to an attenuation in dB."""

    @abstractmethod
    def attenuation_db(self, distance_m: float) -> float:
        """Path loss in dB at ``distance_m`` metres."""


@dataclass(frozen=True)
class FreeSpacePathLoss(PathLossModel):
    """Friis free-space path loss.

    Attributes
    ----------
    frequency_hz:
        Carrier frequency (2.44 GHz by default — mid 2450 MHz band).
    """

    frequency_hz: float = 2.44e9

    def attenuation_db(self, distance_m: float) -> float:
        """20 log10(4 pi d / lambda)."""
        if distance_m <= 0:
            raise ValueError("Distance must be strictly positive")
        wavelength = SPEED_OF_LIGHT_M_PER_S / self.frequency_hz
        return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength)


@dataclass(frozen=True)
class LogDistancePathLoss(PathLossModel):
    """Log-distance path loss with optional log-normal shadowing.

    ``A(d) = A(d0) + 10 n log10(d / d0) (+ shadowing)``

    Attributes
    ----------
    exponent:
        Path-loss exponent ``n`` (2 = free space, 3-4 = indoor/dense).
    reference_distance_m:
        The reference distance ``d0``.
    reference_loss_db:
        Attenuation at the reference distance; ``None`` uses free space.
    shadowing_sigma_db:
        Standard deviation of the log-normal shadowing term; 0 disables it.
    frequency_hz:
        Carrier frequency for the free-space reference loss.
    """

    exponent: float = 3.0
    reference_distance_m: float = 1.0
    reference_loss_db: Optional[float] = None
    shadowing_sigma_db: float = 0.0
    frequency_hz: float = 2.44e9

    def _reference_loss(self) -> float:
        if self.reference_loss_db is not None:
            return self.reference_loss_db
        return FreeSpacePathLoss(self.frequency_hz).attenuation_db(
            self.reference_distance_m)

    def attenuation_db(self, distance_m: float,
                       rng: Optional[np.random.Generator] = None) -> float:
        """Median path loss at ``distance_m``; adds shadowing when ``rng`` given."""
        if distance_m <= 0:
            raise ValueError("Distance must be strictly positive")
        distance = max(distance_m, self.reference_distance_m)
        loss = (self._reference_loss()
                + 10.0 * self.exponent
                * math.log10(distance / self.reference_distance_m))
        if rng is not None and self.shadowing_sigma_db > 0.0:
            loss += rng.normal(0.0, self.shadowing_sigma_db)
        return loss


class PathLossDistribution(ABC):
    """A distribution of path losses across the nodes of a scenario."""

    @abstractmethod
    def grid(self, count: int) -> np.ndarray:
        """A deterministic grid of ``count`` representative path losses,
        suitable for numerically averaging a function of the path loss over
        the node population (used by the analytical case study)."""


@dataclass(frozen=True)
class UniformPathLossDistribution(PathLossDistribution):
    """Uniform path-loss distribution (the paper's U(55, 95) dB case study).

    Attributes
    ----------
    low_db, high_db:
        Bounds of the uniform distribution in dB.
    """

    low_db: float = 55.0
    high_db: float = 95.0

    def __post_init__(self):
        if self.high_db <= self.low_db:
            raise ValueError("high_db must exceed low_db")

    def grid(self, count: int) -> np.ndarray:
        """Midpoint grid covering the support with equal probability mass."""
        if count < 1:
            raise ValueError("Grid must contain at least one point")
        edges = np.linspace(self.low_db, self.high_db, count + 1)
        return 0.5 * (edges[:-1] + edges[1:])
