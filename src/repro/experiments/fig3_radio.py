"""EXP-F3 — Figure 3: CC2420 state powers, transition times and energies.

Figure 3 of the paper is a measurement summary; the reproduction encodes the
published numbers in :data:`repro.radio.power_profile.CC2420_PROFILE` and
this experiment verifies the *derived* quantities the rest of the model
relies on: power = current x VDD per state, the worst-case transition
energy rule (time x arrival-state power), and the idle-power-versus-100 µW
observation the paper makes ("the idle state power of 712 µW is already 7
times higher than the average power goal of 100 µW").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import ExperimentReport
from repro.radio.power_profile import CC2420_PROFILE, RadioPowerProfile
from repro.radio.states import RadioState

#: The paper's stated values (Figure 3), used as the comparison baseline.
PAPER_STATE_POWER_W = {
    RadioState.SHUTDOWN: 144e-9,
    RadioState.IDLE: 712e-6,
    RadioState.RX: 35.28e-3,
}
PAPER_TX_CURRENT_A = {
    -25.0: 8.42e-3, -15.0: 9.71e-3, -10.0: 10.9e-3, -7.0: 12.17e-3,
    -5.0: 12.27e-3, -3.0: 14.63e-3, -1.0: 15.785e-3, 0.0: 17.04e-3,
}
PAPER_SHUTDOWN_IDLE_TIME_S = 970e-6
PAPER_SHUTDOWN_IDLE_ENERGY_J = 691e-12
PAPER_IDLE_ACTIVE_TIME_S = 194e-6
PAPER_IDLE_ACTIVE_ENERGY_J = 6.63e-6
PAPER_POWER_GOAL_W = 100e-6
#: The paper's literal observation: idle power is ~7x the 100 uW
#: energy-scavenging budget.
PAPER_IDLE_GOAL_RATIO = 7.0


@dataclass
class Fig3Result:
    """Output of the Figure 3 experiment."""

    report: ExperimentReport


def run_fig3_radio_characterization(
        profile: RadioPowerProfile = CC2420_PROFILE,
        power_goal_w: float = PAPER_POWER_GOAL_W) -> Fig3Result:
    """Regenerate the Figure 3 tables and compare against the paper.

    ``power_goal_w`` sets the energy-scavenging budget the idle power is
    compared against; the paper's observation uses 100 µW, and the expected
    ratio scales with the configured goal (712 µW idle / goal).
    """
    report = ExperimentReport(
        experiment_id="EXP-F3",
        title="CC2420 steady-state and transient characterisation (Figure 3)",
    )

    # ---- steady-state powers -------------------------------------------------------
    for state, paper_power in PAPER_STATE_POWER_W.items():
        report.add(
            quantity=f"{state.value} power [W]",
            paper_value=paper_power,
            measured_value=profile.power_w(state),
            tolerance=0.01,
        )
    # The paper value anchors on the *stated* 7.0 ratio (at the paper's
    # 100 uW goal), rescaled when the goal is overridden — it must never be
    # derived from the same expression as the measurement, or the
    # comparison would be vacuously within tolerance.
    report.add(
        quantity=f"idle power / {power_goal_w * 1e6:g} uW scavenging goal",
        paper_value=PAPER_IDLE_GOAL_RATIO * (PAPER_POWER_GOAL_W
                                             / power_goal_w),
        measured_value=profile.power_w(RadioState.IDLE) / power_goal_w,
        tolerance=0.05,
        note="the paper notes idle alone is ~7x the energy-scavenging budget",
    )

    # ---- transmit levels --------------------------------------------------------------
    for level_dbm, paper_current in PAPER_TX_CURRENT_A.items():
        measured = profile.tx_level(level_dbm).supply_current_a
        report.add(
            quantity=f"TX current at {level_dbm:g} dBm [A]",
            paper_value=paper_current,
            measured_value=measured,
            tolerance=0.01,
        )

    # ---- transitions ---------------------------------------------------------------------
    shutdown_idle = profile.transition(RadioState.SHUTDOWN, RadioState.IDLE)
    idle_rx = profile.transition(RadioState.IDLE, RadioState.RX)
    idle_tx = profile.transition(RadioState.IDLE, RadioState.TX)
    report.add("shutdown->idle time [s]", PAPER_SHUTDOWN_IDLE_TIME_S,
               shutdown_idle.duration_s, tolerance=0.01)
    report.add("shutdown->idle energy [J]", PAPER_SHUTDOWN_IDLE_ENERGY_J,
               shutdown_idle.energy_j, tolerance=0.01)
    report.add("idle->rx time [s]", PAPER_IDLE_ACTIVE_TIME_S,
               idle_rx.duration_s, tolerance=0.01)
    report.add("idle->rx energy [J]", PAPER_IDLE_ACTIVE_ENERGY_J,
               idle_rx.energy_j, tolerance=0.05,
               note="worst case: transition time x receive power")
    report.add("idle->tx energy [J]", PAPER_IDLE_ACTIVE_ENERGY_J,
               idle_tx.energy_j, tolerance=0.15,
               note="paper quotes 6.63 uJ for both active transitions; at "
                    "0 dBm the TX arrival power is slightly lower than RX")

    return Fig3Result(report=report)
