"""EXP-CS — Section 5 case study: 211 µW, 1.45 s, 16 %.

The headline result of the paper: in a network of 1600 nodes (100 per
channel), each buffering 1 byte / 8 ms into 120-byte packets sent once per
983 ms superframe with link adaptation, the average node power is 211 µW,
the delivery delay 1.45 s and the transmission-failure probability 16 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.report import ExperimentReport
from repro.core.case_study import CaseStudy, CaseStudyParameters, CaseStudyResult
from repro.core.energy_model import EnergyModel

#: The paper's headline numbers.
PAPER_AVERAGE_POWER_W = 211e-6
PAPER_DELIVERY_DELAY_S = 1.45
PAPER_FAILURE_PROBABILITY = 0.16
PAPER_CHANNEL_LOAD = 0.42
PAPER_PACKET_PERIOD_S = 0.960
PAPER_INTER_BEACON_S = 0.98304


@dataclass
class CaseStudyExperimentResult:
    """Output of the case-study experiment."""

    report: ExperimentReport
    with_adaptation: CaseStudyResult
    without_adaptation: CaseStudyResult


def run_case_study(model: EnergyModel,
                   parameters: Optional[CaseStudyParameters] = None,
                   path_loss_resolution: int = 41) -> CaseStudyExperimentResult:
    """Reproduce the Section 5 headline numbers (with and without adaptation)."""
    study = CaseStudy(model=model, parameters=parameters,
                      path_loss_resolution=path_loss_resolution)
    adapted = study.run(link_adaptation=True)
    fixed = study.run(link_adaptation=False)

    report = ExperimentReport(
        experiment_id="EXP-CS",
        title="Dense-network case study headline numbers (Section 5)",
    )
    report.add("channel load", PAPER_CHANNEL_LOAD, adapted.channel_load,
               tolerance=0.1)
    report.add("packet accumulation period [s]", PAPER_PACKET_PERIOD_S,
               adapted.parameters.packet_accumulation_period_s, tolerance=0.01)
    report.add("inter-beacon period [s]", PAPER_INTER_BEACON_S,
               adapted.inter_beacon_period_s, tolerance=0.01)
    report.add("average power [W]", PAPER_AVERAGE_POWER_W,
               adapted.average_power_w, tolerance=0.25)
    report.add("delivery delay [s]", PAPER_DELIVERY_DELAY_S,
               adapted.mean_delivery_delay_s, tolerance=0.5)
    report.add("transmission failure probability", PAPER_FAILURE_PROBABILITY,
               adapted.mean_failure_probability, tolerance=0.5)
    report.add("average power without link adaptation [W]", None,
               fixed.average_power_w,
               note="ablation: every node transmits at 0 dBm")
    report.add("power saving from link adaptation", None,
               1.0 - adapted.average_power_w / fixed.average_power_w,
               note="population-level saving (the paper's 'up to 40 %' refers "
                    "to the best-case node)")
    report.add_note("Population averages are computed over an equal-mass "
                    "discretisation of the U(55, 95) dB path-loss distribution.")

    return CaseStudyExperimentResult(
        report=report,
        with_adaptation=adapted,
        without_adaptation=fixed,
    )
