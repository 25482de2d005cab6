"""Named data series — the in-memory stand-in for the paper's figures.

Each figure of the paper is regenerated as one or more :class:`Series`
(x values, y values, label); a :class:`SeriesCollection` groups the series
of one figure, which the engine's adapters flatten into one result row per
(series, x) point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

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
