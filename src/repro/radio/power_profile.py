"""Measured power/energy profile of the CC2420 (Figure 3 of the paper).

All numbers are taken directly from the paper's measurement summary:

=========  ==============  =================
State      Current         Power (VDD=1.8 V)
=========  ==============  =================
Shutdown   80 nA           144 nW
Idle       396 µA          712 µW
Receive    19.6 mA         35.28 mW
Transmit   8.42–17.04 mA   depends on level
=========  ==============  =================

Transmit power levels (8 programmable steps; the paper lists the currents
for -25, -15, -10, -7, -5, -3, -1 and 0 dBm).

Transitions:

* shutdown -> idle: 970 µs, 691 pJ (the paper rounds the delay to ~1 ms in
  the activation policy; both values are exposed);
* idle -> RX and idle -> TX: 194 µs, 6.63 µJ each.

The transition energy follows the paper's worst-case rule: transition time
multiplied by the power of the *arrival* state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.radio.states import IllegalTransitionError, RadioState

#: Supply voltage used for all measurements.
CC2420_VDD_V = 1.8


@dataclass(frozen=True)
class TxPowerLevel:
    """One programmable transmit power setting.

    Attributes
    ----------
    level_dbm:
        Nominal RF output power in dBm.
    supply_current_a:
        Measured supply current in amperes at that setting.
    register_code:
        PA_LEVEL register code programmed into the chip (CC2420 datasheet);
        kept for completeness of the driver model.
    """

    level_dbm: float
    supply_current_a: float
    register_code: int

    def power_w(self, vdd_v: float = CC2420_VDD_V) -> float:
        """Electrical power drawn from the supply at this setting."""
        return self.supply_current_a * vdd_v


@dataclass(frozen=True)
class StateTransition:
    """A measured transition between two radio states."""

    source: RadioState
    target: RadioState
    duration_s: float
    energy_j: float


def _worst_case_transition(source: RadioState, target: RadioState,
                           duration_s: float, target_power_w: float) -> StateTransition:
    """Build a transition whose energy is duration x arrival-state power."""
    return StateTransition(source=source, target=target,
                           duration_s=duration_s,
                           energy_j=duration_s * target_power_w)


@dataclass(frozen=True)
class RadioPowerProfile:
    """Complete steady-state + transient energy description of a radio.

    Attributes
    ----------
    name:
        Profile identifier (e.g. ``"CC2420"``).
    vdd_v:
        Supply voltage.
    state_power_w:
        Steady-state electrical power per state.  For TX this entry holds the
        power at the *reference* (maximum, 0 dBm) setting; per-level TX powers
        are available through :meth:`tx_power_w`.
    tx_levels:
        The programmable transmit power settings, sorted by increasing dBm.
    transitions:
        Measured transitions keyed by (source, target).
    """

    name: str
    vdd_v: float
    state_power_w: Dict[RadioState, float]
    tx_levels: Tuple[TxPowerLevel, ...]
    transitions: Dict[Tuple[RadioState, RadioState], StateTransition]

    # -- steady state --------------------------------------------------------
    def power_w(self, state: RadioState,
                tx_level_dbm: Optional[float] = None) -> float:
        """Steady-state power of ``state``.

        For ``RadioState.TX`` an explicit ``tx_level_dbm`` selects the
        programmed output power (defaults to the maximum level).
        """
        if state is RadioState.TX:
            return self.tx_power_w(tx_level_dbm)
        return self.state_power_w[state]

    def tx_power_w(self, level_dbm: Optional[float] = None) -> float:
        """Electrical power in transmit mode at output level ``level_dbm``."""
        level = self.tx_level(level_dbm)
        return level.power_w(self.vdd_v)

    def tx_level(self, level_dbm: Optional[float] = None) -> TxPowerLevel:
        """The :class:`TxPowerLevel` entry for ``level_dbm``.

        ``None`` returns the maximum level.  A value that does not exactly
        match a programmable step is rounded *up* to the next available step
        (the radio must transmit at least the requested power); values above
        the maximum raise :class:`ValueError`.
        """
        if not self.tx_levels:
            raise ValueError(f"Profile {self.name} has no TX levels")
        if level_dbm is None:
            return self.tx_levels[-1]
        for level in self.tx_levels:
            if level.level_dbm >= level_dbm - 1e-9:
                return level
        raise ValueError(
            f"Requested TX level {level_dbm} dBm exceeds the maximum "
            f"({self.tx_levels[-1].level_dbm} dBm) of profile {self.name}")

    def tx_level_dbms(self) -> List[float]:
        """The programmable output levels in dBm, ascending."""
        return [level.level_dbm for level in self.tx_levels]

    @property
    def min_tx_level_dbm(self) -> float:
        """Lowest programmable output power."""
        return self.tx_levels[0].level_dbm

    @property
    def max_tx_level_dbm(self) -> float:
        """Highest programmable output power."""
        return self.tx_levels[-1].level_dbm

    # -- transitions -----------------------------------------------------------
    def transition(self, source: RadioState, target: RadioState) -> StateTransition:
        """The measured transition from ``source`` to ``target``.

        Raises
        ------
        IllegalTransitionError
            If the profile holds no measurement for that pair.
        """
        if source == target:
            return StateTransition(source, target, 0.0, 0.0)
        try:
            return self.transitions[(source, target)]
        except KeyError as exc:
            raise IllegalTransitionError(
                f"No measured transition {source.value} -> {target.value} "
                f"in profile {self.name}") from exc

    def transition_time_s(self, source: RadioState, target: RadioState) -> float:
        """Duration of the transition from ``source`` to ``target``."""
        return self.transition(source, target).duration_s

    def transition_energy_j(self, source: RadioState, target: RadioState) -> float:
        """Energy of the transition from ``source`` to ``target``."""
        return self.transition(source, target).energy_j

    # -- derived profiles -------------------------------------------------------
    def with_scaled_transitions(self, factor: float) -> "RadioPowerProfile":
        """A copy with every transition time and energy multiplied by ``factor``.

        Used for the paper's first improvement perspective ("reducing the
        transition time between states by a factor two would decrease the
        total average power by 12 %").
        """
        if factor < 0:
            raise ValueError("Scaling factor must be non-negative")
        scaled = {
            key: StateTransition(t.source, t.target,
                                 t.duration_s * factor, t.energy_j * factor)
            for key, t in self.transitions.items()
        }
        return replace(self, transitions=scaled,
                       name=f"{self.name}(transitions x{factor:g})")



def _build_cc2420_profile() -> RadioPowerProfile:
    """Construct the CC2420 profile from the paper's Figure 3 numbers."""
    vdd = CC2420_VDD_V
    state_power = {
        RadioState.SHUTDOWN: 80e-9 * vdd,      # 144 nW
        RadioState.IDLE: 396e-6 * vdd,         # 712.8 uW (the paper quotes 712)
        RadioState.RX: 19.6e-3 * vdd,          # 35.28 mW
        RadioState.TX: 17.04e-3 * vdd,         # 0 dBm reference level
    }
    tx_levels = (
        TxPowerLevel(-25.0, 8.42e-3, 3),
        TxPowerLevel(-15.0, 9.71e-3, 7),
        TxPowerLevel(-10.0, 10.9e-3, 11),
        TxPowerLevel(-7.0, 12.17e-3, 15),
        TxPowerLevel(-5.0, 12.27e-3, 19),
        TxPowerLevel(-3.0, 14.63e-3, 23),
        TxPowerLevel(-1.0, 15.785e-3, 27),
        TxPowerLevel(0.0, 17.04e-3, 31),
    )
    shutdown_idle_time = 970e-6
    idle_active_time = 194e-6
    transitions = {
        (RadioState.SHUTDOWN, RadioState.IDLE): StateTransition(
            RadioState.SHUTDOWN, RadioState.IDLE,
            shutdown_idle_time, 691e-12),
        (RadioState.IDLE, RadioState.SHUTDOWN): StateTransition(
            RadioState.IDLE, RadioState.SHUTDOWN,
            # Returning to shutdown is a strobe: effectively immediate and
            # free relative to the other transitions.
            0.0, 0.0),
        (RadioState.IDLE, RadioState.RX): _worst_case_transition(
            RadioState.IDLE, RadioState.RX,
            idle_active_time, state_power[RadioState.RX]),
        (RadioState.IDLE, RadioState.TX): _worst_case_transition(
            RadioState.IDLE, RadioState.TX,
            idle_active_time, state_power[RadioState.TX]),
        (RadioState.RX, RadioState.IDLE): StateTransition(
            RadioState.RX, RadioState.IDLE, 0.0, 0.0),
        (RadioState.TX, RadioState.IDLE): StateTransition(
            RadioState.TX, RadioState.IDLE, 0.0, 0.0),
    }
    return RadioPowerProfile(
        name="CC2420",
        vdd_v=vdd,
        state_power_w=state_power,
        tx_levels=tx_levels,
        transitions=transitions,
    )


#: The CC2420 profile with the paper's measured numbers.
CC2420_PROFILE = _build_cc2420_profile()

#: Transition time shutdown -> idle used by the activation policy (the paper
#: rounds the measured 970 us up to 1 ms to add scheduling margin).
T_SHUTDOWN_TO_IDLE_POLICY_S = 1e-3
#: Transition time idle -> RX/TX (T_ia in the paper).
T_IDLE_TO_ACTIVE_S = 194e-6
