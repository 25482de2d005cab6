"""EXP-F7 — Figure 7: optimal energy per bit versus path loss.

Figure 7 plots, for 120-byte packets and several network loads, the energy
per transmitted bit as a function of the path loss when each node uses the
energy-optimal transmit power.  The circles of the figure are the switching
thresholds between power levels.  The paper's observations:

* the thresholds are independent of the network load,
* transmission is efficient up to 88 dB of path loss,
* the energy per bit ranges from ~135 nJ/bit (path loss < 55 dB) to
  ~220 nJ/bit (88 dB), and
* adapting the transmit power saves up to ~40 % of the energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.analysis.series import Series, SeriesCollection
from repro.core.energy_model import EnergyModel
from repro.core.link_adaptation import ChannelInversionPolicy, PowerThreshold

#: Paper values used as comparison baselines.
PAPER_ENERGY_LOW_NJ = 135.0
PAPER_ENERGY_HIGH_NJ = 220.0
PAPER_EFFICIENT_UP_TO_DB = 88.0
PAPER_MAX_SAVING = 0.40


@dataclass
class Fig7Result:
    """Output of the Figure 7 experiment."""

    report: ExperimentReport
    curves: SeriesCollection
    thresholds_by_load: Dict[float, List[PowerThreshold]]


def run_fig7_link_adaptation(model: EnergyModel,
                             loads: Sequence[float] = (0.2, 0.42, 0.6),
                             payload_bytes: int = 120,
                             path_loss_grid_db: Optional[np.ndarray] = None,
                             beacon_order: int = 6) -> Fig7Result:
    """Regenerate Figure 7 and the transmit-power switching thresholds."""
    if path_loss_grid_db is None:
        path_loss_grid_db = np.arange(45.0, 95.5, 1.0)
    grid = np.asarray(path_loss_grid_db, dtype=float)

    curves = SeriesCollection(
        title="Figure 7: optimal energy per bit vs path loss",
        x_name="path loss [dB]", y_name="energy per bit [J]")
    thresholds_by_load: Dict[float, List[PowerThreshold]] = {}

    for load in loads:
        policy = ChannelInversionPolicy(model, payload_bytes=payload_bytes,
                                        load=float(load), beacon_order=beacon_order)
        curve = policy.compute_curve(grid)
        thresholds_by_load[float(load)] = policy.compute_thresholds(grid)
        curves.add(Series(f"load = {load:g}", grid, curve.optimal_energy_per_bit_j,
                          "path loss [dB]", "energy per bit [J]"))

    report = ExperimentReport(
        experiment_id="EXP-F7",
        title="Link adaptation: optimal energy per bit and power thresholds (Figure 7)",
    )

    reference_load = float(loads[len(loads) // 2])
    reference_curve = curves.get(f"load = {reference_load:g}")
    energy_low = reference_curve.interpolate(55.0)
    energy_high = reference_curve.interpolate(PAPER_EFFICIENT_UP_TO_DB)
    report.add("energy per bit at 55 dB [nJ/bit]", PAPER_ENERGY_LOW_NJ,
               energy_low * 1e9, tolerance=0.6)
    report.add("energy per bit at 88 dB [nJ/bit]", PAPER_ENERGY_HIGH_NJ,
               energy_high * 1e9, tolerance=0.6)
    report.add("high / low energy ratio", PAPER_ENERGY_HIGH_NJ / PAPER_ENERGY_LOW_NJ,
               energy_high / energy_low, tolerance=0.35,
               note="shape check: cost of operating at the 88 dB edge")

    # Threshold load-independence: compare the threshold sets across loads.
    reference_thresholds = thresholds_by_load[float(loads[0])]
    max_shift = 0.0
    for load in loads[1:]:
        other = thresholds_by_load[float(load)]
        for a, b in zip(reference_thresholds, other):
            max_shift = max(max_shift, abs(a.path_loss_db - b.path_loss_db))
    report.add("max threshold shift across loads [dB]", 0.0, max_shift,
               tolerance=None,
               note="paper: thresholds are independent of the network load "
                    "(shifts of a couple of dB stem from Monte-Carlo noise)")

    # Saving of adaptation vs fixed maximum power at low path loss.
    policy = ChannelInversionPolicy(model, payload_bytes=payload_bytes,
                                    load=reference_load, beacon_order=beacon_order)
    policy.compute_thresholds(grid)
    saving = policy.adaptation_saving(path_loss_low_db=55.0)
    report.add("link adaptation saving at low path loss", PAPER_MAX_SAVING,
               saving, tolerance=0.5,
               note="paper: adaptation saves up to 40 % of the total energy")

    highest_threshold = max((t.path_loss_db for t in reference_thresholds),
                            default=float("nan"))
    report.add("highest switching threshold [dB]", PAPER_EFFICIENT_UP_TO_DB,
               highest_threshold, tolerance=0.1,
               note="transmission remains efficient up to ~88 dB")

    return Fig7Result(report=report, curves=curves,
                      thresholds_by_load=thresholds_by_load)
