"""Named data series — the in-memory stand-in for the paper's figures.

Each figure of the paper is regenerated as one or more :class:`Series`
(x values, y values, label); a :class:`SeriesCollection` groups the series
of one figure, which the engine's adapters flatten into one result row per
(series, x) point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


@dataclass
class Series:
    """One curve: x values, y values and a label.

    Attributes
    ----------
    label:
        Curve label (e.g. ``"P_tx = -10 dBm"`` or ``"load = 0.42"``).
    x:
        Abscissa values.
    y:
        Ordinate values (same length as ``x``).
    x_name / y_name:
        Axis names used when rendering.
    """

    label: str
    x: np.ndarray
    y: np.ndarray
    x_name: str = "x"
    y_name: str = "y"

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape:
            raise ValueError("x and y must have the same shape")

    def __len__(self) -> int:
        return self.x.size

    def interpolate(self, x_value: float) -> float:
        """Linear interpolation of the curve at ``x_value`` (clamped)."""
        return float(np.interp(x_value, self.x, self.y))

    def argmin_x(self) -> float:
        """x value at which the curve attains its minimum."""
        return float(self.x[int(np.argmin(self.y))])

    def is_monotonic_decreasing(self, tolerance: float = 0.0) -> bool:
        """Whether y never increases by more than ``tolerance`` (relative)."""
        for previous, current in zip(self.y, self.y[1:]):
            if current > previous * (1.0 + tolerance):
                return False
        return True

    def crossing_with(self, other: "Series") -> Optional[float]:
        """x at which this curve first crosses ``other`` (None if never).

        Both series must share the same x grid.
        """
        if not np.allclose(self.x, other.x):
            raise ValueError("Series must share the same x grid to intersect")
        difference = self.y - other.y
        signs = np.sign(difference)
        for index in range(1, signs.size):
            if signs[index] != signs[index - 1] and signs[index] != 0:
                # Linear interpolation of the crossing point.
                x0, x1 = self.x[index - 1], self.x[index]
                d0, d1 = difference[index - 1], difference[index]
                if d1 == d0:
                    return float(x1)
                return float(x0 - d0 * (x1 - x0) / (d1 - d0))
        return None


@dataclass
class SeriesCollection:
    """The series making up one figure."""

    title: str
    x_name: str
    y_name: str
    series: List[Series] = field(default_factory=list)

    def add(self, series: Series) -> None:
        """Append one curve."""
        self.series.append(series)

    def labels(self) -> List[str]:
        """Labels of all curves."""
        return [s.label for s in self.series]

    def get(self, label: str) -> Series:
        """The curve with ``label``.

        Raises
        ------
        KeyError
            If no curve carries that label.
        """
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"No series labelled {label!r} in {self.title!r}")
