"""EXP-F8 — Figure 8: impact of the MAC overhead / packet size on energy per bit.

Figure 8 plots the energy per useful bit versus the packet payload size for
several network loads.  The paper's finding is that — despite the intuition
of a trade-off between fixed per-packet overhead and growing error /
contention cost — the energy per bit decreases monotonically up to the
largest payload the standard allows (123 bytes), which motivates the
120-byte buffering of the case study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.analysis.series import Series, SeriesCollection
from repro.core.energy_model import EnergyModel
from repro.core.optimizer import PacketSizeOptimizer, PacketSizeSweep
from repro.mac.frames import max_payload_bytes


@dataclass
class Fig8Result:
    """Output of the Figure 8 experiment."""

    report: ExperimentReport
    curves: SeriesCollection
    sweeps: Dict[float, PacketSizeSweep]


def run_fig8_packet_size(model: EnergyModel,
                         loads: Sequence[float] = (0.2, 0.42, 0.6),
                         payload_sizes: Optional[Sequence[int]] = None,
                         path_loss_db: float = 75.0,
                         beacon_order: int = 6) -> Fig8Result:
    """Regenerate Figure 8 (energy per bit vs payload size per load)."""
    if payload_sizes is None:
        payload_sizes = [5, 10, 20, 40, 60, 80, 100, 120, 123]
    payload_sizes = [int(p) for p in payload_sizes]

    optimizer = PacketSizeOptimizer(model, path_loss_db=path_loss_db,
                                    beacon_order=beacon_order)
    curves = SeriesCollection(
        title="Figure 8: energy per bit vs payload size",
        x_name="payload [bytes]", y_name="energy per bit [J]")
    sweeps: Dict[float, PacketSizeSweep] = {}
    for load in loads:
        sweep = optimizer.sweep(float(load), payload_sizes)
        sweeps[float(load)] = sweep
        curves.add(Series(f"load = {load:g}",
                          np.array(payload_sizes, dtype=float),
                          [p.energy_per_bit_j for p in sweep.points],
                          "payload [bytes]", "energy per bit [J]"))

    report = ExperimentReport(
        experiment_id="EXP-F8",
        title="Energy per bit vs packet size (Figure 8)",
    )
    for load, sweep in sweeps.items():
        report.add(
            quantity=f"optimal payload at load {load:g} [bytes]",
            paper_value=float(max(payload_sizes)),
            measured_value=float(sweep.optimal_payload_bytes),
            tolerance=0.15,
            note="paper: the optimum sits at the largest allowed packet size",
        )
        report.add(
            quantity=f"monotonic decrease at load {load:g} (1 = yes)",
            paper_value=1.0,
            measured_value=1.0 if sweep.is_monotonically_decreasing(0.05) else 0.0,
            tolerance=0.0,
        )
    small = sweeps[float(loads[0])].points[0].energy_per_bit_j
    large = sweeps[float(loads[0])].points[-1].energy_per_bit_j
    report.add("energy per bit: 5 B / max payload ratio", None, small / large,
               note="quantifies how much the fixed per-packet overhead "
                    "penalises small packets")
    report.add_note(f"Maximum payload with the paper's overhead accounting: "
                    f"{max_payload_bytes()} bytes.")

    return Fig8Result(report=report, curves=curves, sweeps=sweeps)
