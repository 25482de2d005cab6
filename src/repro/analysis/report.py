"""Experiment reports: paper value vs reproduced value.

Every experiment driver produces an :class:`ExperimentReport` listing, for
each quantity the paper states, the published value, the reproduced value
and whether the reproduction falls inside the declared tolerance band.  The
engine's adapters (:mod:`repro.runner.drivers`) turn each report into the
result rows ``python -m repro run`` prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class ComparisonRow:
    """One paper-vs-measured comparison.

    Attributes
    ----------
    quantity:
        Human-readable name of the quantity (with units).
    paper_value:
        Value stated in the paper (``None`` when the paper only reports a
        qualitative statement, e.g. "decreases monotonically").
    measured_value:
        Value produced by the reproduction.
    tolerance:
        Acceptable relative deviation (e.g. 0.3 = ±30 %); ``None`` marks a
        purely informational row.
    note:
        Free-text remark (qualitative checks, substitutions, ...).
    """

    quantity: str
    paper_value: Optional[float]
    measured_value: float
    tolerance: Optional[float] = None
    note: str = ""

    @property
    def relative_error(self) -> Optional[float]:
        """(measured - paper) / |paper|; ``None`` when not comparable."""
        if self.paper_value is None or self.paper_value == 0:
            return None
        if math.isinf(self.measured_value) or math.isnan(self.measured_value):
            return math.inf
        return (self.measured_value - self.paper_value) / abs(self.paper_value)

    @property
    def within_tolerance(self) -> Optional[bool]:
        """Whether the measured value falls inside the tolerance band."""
        if self.tolerance is None or self.relative_error is None:
            return None
        return abs(self.relative_error) <= self.tolerance


@dataclass
class ExperimentReport:
    """Paper-vs-measured report of one experiment (figure, table or claim)."""

    experiment_id: str
    title: str
    rows: List[ComparisonRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, quantity: str, paper_value: Optional[float],
            measured_value: float, tolerance: Optional[float] = None,
            note: str = "") -> ComparisonRow:
        """Append one comparison row and return it."""
        row = ComparisonRow(quantity=quantity, paper_value=paper_value,
                            measured_value=measured_value,
                            tolerance=tolerance, note=note)
        self.rows.append(row)
        return row

    def add_note(self, note: str) -> None:
        """Append a free-text remark to the report."""
        self.notes.append(note)

    @property
    def all_within_tolerance(self) -> bool:
        """Whether every quantitative row passes its tolerance band."""
        checked = [row.within_tolerance for row in self.rows
                   if row.within_tolerance is not None]
        return all(checked) if checked else True
