"""EXP-F9 — Figure 9: energy and time breakdowns of the case study.

Figure 9a breaks the active energy per bit into the protocol phases
(beacon ~20 %, contention ~25 %, transmit < 50 %, ACK/IFS ~15 %); Figure 9b
breaks the inter-beacon period into the radio-state occupancies
(shutdown 98.77 %, idle 0.47 %, transmit 0.48 %, receive 0.28 %).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import ExperimentReport
from repro.core.case_study import CaseStudy, CaseStudyResult
from repro.core.energy_model import (
    EnergyModel,
    PHASE_ACK,
    PHASE_BEACON,
    PHASE_CONTENTION,
    PHASE_TRANSMIT,
)
from repro.radio.states import RadioState

#: Paper values (Figure 9a), as fractions of the active energy.
PAPER_ENERGY_FRACTIONS = {
    PHASE_BEACON: 0.20,
    PHASE_CONTENTION: 0.25,
    PHASE_TRANSMIT: 0.47,
    PHASE_ACK: 0.15,
}
#: Paper values (Figure 9b), as fractions of the inter-beacon period.
PAPER_TIME_FRACTIONS = {
    RadioState.SHUTDOWN: 0.9877,
    RadioState.IDLE: 0.0047,
    RadioState.TX: 0.0048,
    RadioState.RX: 0.0028,
}


@dataclass
class Fig9Result:
    """Output of the Figure 9 experiment."""

    report: ExperimentReport
    case_study: CaseStudyResult


def run_fig9_breakdown(model: EnergyModel,
                       path_loss_resolution: int = 41) -> Fig9Result:
    """Regenerate the Figure 9 breakdowns from the case-study scenario."""
    study = CaseStudy(model=model, path_loss_resolution=path_loss_resolution)
    result = study.run()

    report = ExperimentReport(
        experiment_id="EXP-F9",
        title="Energy per phase and time per state breakdowns (Figure 9)",
    )
    for phase, paper_fraction in PAPER_ENERGY_FRACTIONS.items():
        report.add(
            quantity=f"energy share of {phase}",
            paper_value=paper_fraction,
            measured_value=result.energy_breakdown.fraction(phase),
            tolerance=0.45,
        )
    report.add(
        quantity="transmit is largest share but stays near/below half (1 = yes)",
        paper_value=1.0,
        measured_value=1.0 if result.energy_breakdown.fraction(PHASE_TRANSMIT) < 0.55
        else 0.0,
        tolerance=0.0,
        note="the paper stresses that (not much more than) half the energy "
             "goes to actual data transmission; the reproduced share depends "
             "on the re-simulated contention statistics",
    )
    for state, paper_fraction in PAPER_TIME_FRACTIONS.items():
        report.add(
            quantity=f"time share of {state.value}",
            paper_value=paper_fraction,
            measured_value=result.time_breakdown.fraction(state),
            tolerance=0.6 if state is not RadioState.SHUTDOWN else 0.01,
        )

    return Fig9Result(report=report, case_study=result)
