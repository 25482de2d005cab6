"""EXP-VAL — cross-validation of the analytical model against packet simulation.

Not an artefact of the paper itself, but the sanity substrate DESIGN.md
calls for: the analytical model (Section 4 equations driven by Monte-Carlo
contention statistics) and the packet-level simulation of the beacon-enabled
MAC (``repro.mac`` on the discrete-event kernel) must agree on

* the average node power,
* the protocol-phase energy split, and
* the packet failure behaviour

for the same scenario.  Pure-Python packet simulation of the full 100-node
channel over many superframes is slow, so the validation runs a scaled-down
channel (fewer nodes, proportionally shorter superframe) whose load matches
the requested operating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.report import ExperimentReport
from repro.core.energy_model import EnergyModel, PHASE_BEACON, PHASE_CONTENTION, \
    PHASE_TRANSMIT, PHASE_ACK
from repro.mac.superframe import SuperframeConfig
from repro.network.node import SensorNode
from repro.network.scenario import ChannelScenario, SimulationSummary


@dataclass
class ValidationResult:
    """Output of the model-vs-simulation cross-check."""

    report: ExperimentReport
    simulation: SimulationSummary
    model_power_w: float


def run_model_vs_simulation(model: EnergyModel,
                            num_nodes: int = 12,
                            beacon_order: int = 3,
                            payload_bytes: int = 120,
                            path_loss_db: float = 70.0,
                            tx_power_dbm: float = 0.0,
                            superframes: int = 8,
                            seed: int = 7) -> ValidationResult:
    """Compare analytical and simulated power for one scaled-down channel.

    The default scenario — 12 nodes at beacon order 3 — offers roughly the
    same channel load as the paper's 100 nodes at beacon order 6, so the
    contention statistics the analytical model interpolates remain valid.
    """
    constants = model.config.constants
    config = SuperframeConfig(beacon_order=beacon_order,
                              superframe_order=beacon_order,
                              constants=constants)
    on_air = model.packet_bytes_on_air(payload_bytes)
    load = config.offered_load(nodes=num_nodes, payload_bytes=on_air)

    nodes = [SensorNode(node_id=i, channel=11, path_loss_db=path_loss_db,
                        tx_power_dbm=tx_power_dbm)
             for i in range(1, num_nodes + 1)]
    scenario = ChannelScenario(nodes=nodes, config=config, constants=constants,
                               payload_bytes=payload_bytes, seed=seed)
    simulation = scenario.run(superframes=superframes)

    budget = model.evaluate(payload_bytes=payload_bytes,
                            tx_power_dbm=tx_power_dbm,
                            path_loss_db=path_loss_db,
                            load=load,
                            beacon_order=beacon_order)

    report = ExperimentReport(
        experiment_id="EXP-VAL",
        title="Analytical model vs packet-level simulation",
    )
    report.add("average node power [W] (model as reference)",
               budget.average_power_w, simulation.mean_node_power_w,
               tolerance=0.35,
               note="scaled-down channel; the simulation includes effects the "
                    "model averages out (CAP deferrals, slot quantisation)")
    report.add("transaction failure probability (model as reference)",
               budget.transaction_failure_probability,
               simulation.failure_probability, tolerance=1.5,
               note="small-sample simulated probability")
    # Phase split agreement: compare transmit share of active energy.
    sim_active = sum(simulation.energy_by_phase_j.get(phase, 0.0)
                     for phase in (PHASE_BEACON, PHASE_CONTENTION,
                                   PHASE_TRANSMIT, PHASE_ACK))
    model_active = sum(budget.energy_by_phase_j[phase]
                       for phase in (PHASE_BEACON, PHASE_CONTENTION,
                                     PHASE_TRANSMIT, PHASE_ACK))
    sim_tx_share = (simulation.energy_by_phase_j.get(PHASE_TRANSMIT, 0.0)
                    / sim_active) if sim_active > 0 else math.nan
    model_tx_share = budget.energy_by_phase_j[PHASE_TRANSMIT] / model_active
    report.add("transmit share of active energy (model as reference)",
               model_tx_share, sim_tx_share, tolerance=0.35)

    return ValidationResult(report=report, simulation=simulation,
                            model_power_w=budget.average_power_w)
