"""EXP-IMP — improvement perspectives (Section 5/6).

The paper estimates that halving the state transition times reduces the
case-study average power by ~12 %, and that a scalable receiver with a
low-power mode for channel sensing and acknowledgement waiting saves an
additional ~15 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import ExperimentReport
from repro.core.case_study import CaseStudy, CaseStudyParameters
from repro.core.energy_model import EnergyModel
from repro.core.improvements import ImprovementResult

#: Savings stated by the paper.
PAPER_TRANSITION_SAVING = 0.12
PAPER_SCALABLE_RX_SAVING = 0.15


@dataclass
class ImprovementsExperimentResult:
    """Output of the improvement-perspectives experiment."""

    report: ExperimentReport
    results: List[ImprovementResult]


def run_improvements(model: EnergyModel,
                     parameters: Optional[CaseStudyParameters] = None,
                     path_loss_resolution: int = 31,
                     transition_factor: float = 0.5,
                     rx_scale: float = 0.5) -> ImprovementsExperimentResult:
    """Quantify both improvement perspectives on the case-study scenario."""
    study = CaseStudy(model=model, parameters=parameters,
                      path_loss_resolution=path_loss_resolution)
    results = study.improvements(transition_factor=transition_factor,
                                 rx_scale=rx_scale)

    by_name = {result.name: result for result in results}
    transition_result = by_name[f"transitions x{transition_factor:g}"]
    scalable_result = by_name[f"scalable receiver x{rx_scale:g}"]
    combined_result = by_name["combined"]

    report = ExperimentReport(
        experiment_id="EXP-IMP",
        title="Improvement perspectives: faster transitions and scalable receiver",
    )
    report.add("saving from halving transition times", PAPER_TRANSITION_SAVING,
               transition_result.relative_saving, tolerance=0.5)
    report.add("saving from the scalable receiver", PAPER_SCALABLE_RX_SAVING,
               scalable_result.relative_saving, tolerance=0.5)
    report.add("combined saving", None, combined_result.relative_saving,
               note="both improvements applied together")
    report.add("baseline average power [W]", 211e-6,
               by_name["baseline"].average_power_w, tolerance=0.25)

    return ImprovementsExperimentResult(report=report, results=results)
