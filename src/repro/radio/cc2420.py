"""Stateful CC2420 transceiver model with an energy ledger.

The :class:`CC2420Radio` object tracks the radio state over (simulated or
analytical) time, charging the energy ledger for

* steady-state consumption — state power multiplied by the dwell time, and
* transition consumption — the measured transition energy plus the
  transition delay accounted to the arrival state (the paper's worst-case
  convention).

Every charge can be tagged with a *phase* label (``"beacon"``,
``"contention"``, ``"transmit"``, ``"ack"``, ...), which is what the
protocol-phase energy breakdown of Figure 9 is computed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.radio.power_profile import CC2420_PROFILE, RadioPowerProfile
from repro.radio.states import RadioState, transition_path


@dataclass(frozen=True)
class RadioEvent:
    """One entry of the energy ledger."""

    time_s: float
    duration_s: float
    state: RadioState
    energy_j: float
    phase: str
    kind: str  # "dwell" or "transition"


class EnergyLedger:
    """Accumulates energy charges split by radio state and protocol phase."""

    def __init__(self):
        self._events: List[RadioEvent] = []

    def charge(self, event: RadioEvent) -> None:
        """Append one charge."""
        if event.energy_j < 0:
            raise ValueError("Energy charges must be non-negative")
        self._events.append(event)

    @property
    def total_energy_j(self) -> float:
        """Total energy across all charges."""
        return sum(e.energy_j for e in self._events)

    def energy_by_phase(self) -> Dict[str, float]:
        """Energy per protocol phase label."""
        out: Dict[str, float] = {}
        for event in self._events:
            out[event.phase] = out.get(event.phase, 0.0) + event.energy_j
        return out

    def time_by_state(self) -> Dict[RadioState, float]:
        """Dwell + transition time per radio state (transition time is
        accounted to the arrival state, per the paper's convention)."""
        out: Dict[RadioState, float] = {state: 0.0 for state in RadioState}
        for event in self._events:
            out[event.state] += event.duration_s
        return out


class CC2420Radio:
    """A CC2420 transceiver with explicit state and energy accounting.

    Parameters
    ----------
    profile:
        Power/energy profile; defaults to the paper's measured CC2420 numbers.
    initial_state:
        State at time zero (shutdown for a sleeping sensor node).
    time_s:
        Initial clock value.
    """

    def __init__(self, profile: RadioPowerProfile = CC2420_PROFILE,
                 initial_state: RadioState = RadioState.SHUTDOWN,
                 time_s: float = 0.0):
        self.profile = profile
        self._state = initial_state
        self._time_s = float(time_s)
        self._tx_level_dbm: Optional[float] = None  # None = maximum
        self.ledger = EnergyLedger()

    # -- inspection ------------------------------------------------------------
    @property
    def state(self) -> RadioState:
        """Current radio state."""
        return self._state

    @property
    def time_s(self) -> float:
        """Current local clock of the radio model."""
        return self._time_s

    @property
    def tx_level_dbm(self) -> float:
        """Currently programmed transmit power level in dBm."""
        return self.profile.tx_level(self._tx_level_dbm).level_dbm

    # -- configuration -----------------------------------------------------------
    def set_tx_level(self, level_dbm: Optional[float]) -> float:
        """Program the transmit output power.

        The requested level is rounded up to the next programmable step.
        Returns the actual level programmed.
        """
        level = self.profile.tx_level(level_dbm)
        self._tx_level_dbm = level.level_dbm
        return level.level_dbm

    # -- state machine -------------------------------------------------------------
    def transition_to(self, target: RadioState, phase: str = "unspecified") -> float:
        """Move to ``target``, charging transition time and energy.

        Disallowed direct transitions are decomposed through IDLE.  Returns
        the total transition delay incurred.
        """
        total_delay = 0.0
        for source, hop_target in transition_path(self._state, target):
            transition = self.profile.transition(source, hop_target)
            self.ledger.charge(RadioEvent(
                time_s=self._time_s,
                duration_s=transition.duration_s,
                state=hop_target,
                energy_j=transition.energy_j,
                phase=phase,
                kind="transition",
            ))
            self._time_s += transition.duration_s
            total_delay += transition.duration_s
            self._state = hop_target
        return total_delay

    def dwell(self, duration_s: float, phase: str = "unspecified") -> float:
        """Stay in the current state for ``duration_s``, charging its power.

        Returns the energy charged.
        """
        if duration_s < 0:
            raise ValueError("Dwell duration must be non-negative")
        power = self.profile.power_w(self._state, self._tx_level_dbm)
        energy = power * duration_s
        self.ledger.charge(RadioEvent(
            time_s=self._time_s,
            duration_s=duration_s,
            state=self._state,
            energy_j=energy,
            phase=phase,
            kind="dwell",
        ))
        self._time_s += duration_s
        return energy
