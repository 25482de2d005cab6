"""Energy and time breakdowns (Figure 9 of the paper).

Figure 9a breaks the *active* energy of a node into the four protocol
phases — beacon listening, contention, transmission and acknowledgement /
inter-frame spacing — while Figure 9b breaks the inter-beacon period into
the time spent in each radio state (shutdown 98.77 %, idle 0.47 %,
transmit 0.48 %, receive 0.28 % in the paper's case study).

Both breakdowns are computed from :class:`NodeEnergyBudget` objects by
:func:`average_breakdowns`: one budget gives one node's breakdown, many
give the population average (e.g. over the case-study path-loss
distribution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.energy_model import (
    NodeEnergyBudget,
    PHASE_ACK,
    PHASE_BEACON,
    PHASE_CONTENTION,
    PHASE_TRANSMIT,
)
from repro.radio.states import RadioState

#: Order in which the protocol phases are reported (matches Figure 9a).
PHASE_ORDER = (PHASE_BEACON, PHASE_CONTENTION, PHASE_TRANSMIT, PHASE_ACK)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Share of the active energy spent in each protocol phase."""

    fractions: Dict[str, float]
    total_active_energy_j: float

    def fraction(self, phase: str) -> float:
        """Share of ``phase`` (0..1)."""
        return self.fractions.get(phase, 0.0)


@dataclass(frozen=True)
class TimeBreakdown:
    """Share of the inter-beacon period spent in each radio state."""

    fractions: Dict[RadioState, float]
    inter_beacon_period_s: float

    def fraction(self, state: RadioState) -> float:
        """Share of ``state`` (0..1)."""
        return self.fractions.get(state, 0.0)


def average_breakdowns(budgets: Sequence[NodeEnergyBudget]):
    """Population-average energy and time breakdowns.

    The average is energy weighted (respectively time weighted), i.e. the
    breakdown of the *summed* budgets, which is what the paper's case-study
    pie charts represent.

    Returns
    -------
    (EnergyBreakdown, TimeBreakdown)
    """
    budgets = list(budgets)
    if not budgets:
        raise ValueError("At least one budget is required")

    summed_energy = {p: sum(b.energy_by_phase_j.get(p, 0.0) for b in budgets)
                     for p in PHASE_ORDER}
    total_energy = sum(summed_energy.values())
    energy_breakdown = EnergyBreakdown(
        fractions={p: e / total_energy for p, e in summed_energy.items()},
        total_active_energy_j=total_energy,
    )

    summed_time: Dict[RadioState, float] = {state: 0.0 for state in RadioState}
    for budget in budgets:
        for state, value in budget.time_by_state().items():
            summed_time[state] += value
    total_time = sum(summed_time.values())
    time_breakdown = TimeBreakdown(
        fractions={state: t / total_time for state, t in summed_time.items()},
        inter_beacon_period_s=budgets[0].inter_beacon_period_s,
    )
    return energy_breakdown, time_breakdown
