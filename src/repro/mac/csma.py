"""Slotted CSMA/CA channel access algorithm (IEEE 802.15.4-2003, section 7.5.1.4).

The algorithm, as summarised in Section 2 of the paper:

* a node must sense the channel free **twice** in consecutive backoff slots
  before transmitting (the contention window ``CW`` counts down from 2);
* the first clear channel assessment (CCA) is delayed by a random number of
  backoff slots drawn uniformly from ``0 .. 2^BE - 1`` where ``BE`` is the
  backoff exponent (initially ``macMinBE`` = 3);
* whenever the channel is sensed busy, ``CW`` is reset to 2, the backoff
  exponent is incremented (saturating at ``aMaxBE`` = 5), the number of
  backoff attempts ``NB`` is incremented, and a fresh random delay is drawn;
* after ``NB`` exceeds ``macMaxCSMABackoffs`` the MAC reports a **channel
  access failure** (probability ``Pr_cf`` in the paper).

The paper's description ("If the latter has been incremented twice and the
channel is not sensed to be free, a transmission failure is notified") maps
to ``max_csma_backoffs = 2``; the standard default is 4.  Both are supported
via :class:`CsmaParameters`, as is the battery-life-extension mode where
``BE`` is capped at 2 and the initial backoff is shortened.

The implementation is a step-driven state machine so that the packet-level
MAC event kernel can drive it in event time.  The Monte-Carlo contention
characterisation (:mod:`repro.contention.monte_carlo`) applies the same rules
inlined over per-node lists; its tests drive this machine as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from repro.mac.constants import MAC_2450MHZ, MacConstants


class BatteryLifeExtensionError(ValueError):
    """Raised when battery-life-extension parameters are inconsistent."""


@dataclass(frozen=True)
class CsmaParameters:
    """Tunable parameters of the slotted CSMA/CA algorithm.

    Attributes
    ----------
    min_be:
        Initial backoff exponent (macMinBE, default 3).
    max_be:
        Saturation value of the backoff exponent (aMaxBE, default 5).
    max_csma_backoffs:
        Number of *additional* backoff attempts allowed after the first
        before a channel access failure is declared (macMaxCSMABackoffs).
        The paper's description corresponds to 2; the standard default is 4.
    contention_window:
        Number of consecutive clear CCAs required (CW, fixed at 2 in the
        standard's slotted mode).
    battery_life_extension:
        When ``True`` the backoff exponent is capped at
        ``battery_life_extension_max_be`` (2 in the standard) — the mode the
        paper deliberately avoids in dense networks.
    battery_life_extension_max_be:
        The BE cap applied in battery-life-extension mode.
    """

    min_be: int = 3
    max_be: int = 5
    max_csma_backoffs: int = 2
    contention_window: int = 2
    battery_life_extension: bool = False
    battery_life_extension_max_be: int = 2

    def __post_init__(self):
        if self.min_be < 0 or self.max_be < self.min_be:
            raise ValueError("Backoff exponents must satisfy 0 <= min_be <= max_be")
        if self.max_csma_backoffs < 0:
            raise ValueError("max_csma_backoffs must be non-negative")
        if self.contention_window < 1:
            raise ValueError("The contention window must be at least 1")
        if self.battery_life_extension and self.battery_life_extension_max_be < 0:
            raise BatteryLifeExtensionError(
                "battery_life_extension_max_be must be non-negative")

    @classmethod
    def from_mac_constants(cls, constants: MacConstants = MAC_2450MHZ,
                           paper_convention: bool = True,
                           battery_life_extension: bool = False) -> "CsmaParameters":
        """Build parameters from :class:`MacConstants`.

        ``paper_convention`` selects the paper's "incremented twice" abort
        rule (2 extra backoffs) instead of the standard default of 4.
        """
        return cls(
            min_be=constants.min_be,
            max_be=constants.max_be,
            max_csma_backoffs=2 if paper_convention else constants.max_csma_backoffs,
            battery_life_extension=battery_life_extension,
            battery_life_extension_max_be=constants.battery_life_extension_max_be,
        )

    def initial_backoff_exponent(self) -> int:
        """BE used for the first backoff delay."""
        if self.battery_life_extension:
            return min(self.battery_life_extension_max_be, self.min_be)
        return self.min_be

    def clamp_backoff_exponent(self, be: int) -> int:
        """Apply the aMaxBE (and BLE) cap to a candidate exponent."""
        cap = self.max_be
        if self.battery_life_extension:
            cap = min(cap, self.battery_life_extension_max_be)
        return min(be, cap)


class CsmaAction(Enum):
    """What the MAC must do next, as instructed by the state machine."""

    WAIT_BACKOFF = "wait_backoff"      # wait a number of backoff slots
    PERFORM_CCA = "perform_cca"        # sense the channel for one CCA
    TRANSMIT = "transmit"              # channel clear twice: transmit now
    FAILURE = "failure"                # channel access failure reported


class CsmaOutcome(Enum):
    """Terminal outcome of one contention attempt."""

    SUCCESS = "success"
    CHANNEL_ACCESS_FAILURE = "channel_access_failure"


@dataclass
class CsmaResult:
    """Statistics of one completed contention attempt.

    Attributes
    ----------
    outcome:
        Whether the channel was acquired or a channel access failure occurred.
    backoff_slots_waited:
        Total number of backoff slots spent in random delays.
    cca_count:
        Number of clear channel assessments performed (N_CCA contributions).
    backoff_attempts:
        Number of backoff stages entered (1 for an immediately clear channel).
    duration_slots:
        Total contention duration in backoff slots (delays + CCA slots),
        i.e. the per-attempt contribution to the paper's average contention
        time T_cont.
    """

    outcome: CsmaOutcome
    backoff_slots_waited: int
    cca_count: int
    backoff_attempts: int
    duration_slots: int


class SlottedCsmaCa:
    """Step-driven slotted CSMA/CA state machine for a single frame attempt.

    Typical use::

        csma = SlottedCsmaCa(params, rng)
        action = csma.begin()
        while True:
            if action.action is CsmaAction.WAIT_BACKOFF:
                ... wait action.slots backoff periods ...
                action = csma.backoff_elapsed()
            elif action.action is CsmaAction.PERFORM_CCA:
                busy = ... sense the channel ...
                action = csma.cca_result(busy)
            elif action.action is CsmaAction.TRANSMIT:
                break   # transmit the frame aligned to the next slot boundary
            elif action.action is CsmaAction.FAILURE:
                break   # report channel access failure upwards
        result = csma.result()
    """

    @dataclass
    class Instruction:
        """One instruction issued by the state machine."""

        action: CsmaAction
        slots: int = 0

    def __init__(self, params: Optional[CsmaParameters] = None,
                 rng: Optional[np.random.Generator] = None):
        self.params = params or CsmaParameters()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._reset_state()

    def _reset_state(self) -> None:
        self._nb = 0
        self._cw = self.params.contention_window
        self._be = self.params.initial_backoff_exponent()
        self._backoff_slots_waited = 0
        self._cca_count = 0
        self._backoff_attempts = 0
        self._outcome: Optional[CsmaOutcome] = None
        self._started = False

    # -- driving the state machine ---------------------------------------------------
    def begin(self) -> "SlottedCsmaCa.Instruction":
        """Start a new contention attempt and return the first instruction."""
        self._reset_state()
        self._started = True
        return self._draw_backoff()

    def _draw_backoff(self) -> "SlottedCsmaCa.Instruction":
        self._backoff_attempts += 1
        delay = int(self.rng.integers(0, 2 ** self._be))
        self._pending_delay = delay
        self._backoff_slots_waited += delay
        return self.Instruction(CsmaAction.WAIT_BACKOFF, slots=delay)

    def backoff_elapsed(self) -> "SlottedCsmaCa.Instruction":
        """Report that the random backoff delay has elapsed."""
        self._require_started()
        return self.Instruction(CsmaAction.PERFORM_CCA)

    def cca_result(self, channel_busy: bool) -> "SlottedCsmaCa.Instruction":
        """Report the outcome of a clear channel assessment."""
        self._require_started()
        self._cca_count += 1
        if channel_busy:
            self._cw = self.params.contention_window
            self._nb += 1
            self._be = self.params.clamp_backoff_exponent(self._be + 1)
            if self._nb > self.params.max_csma_backoffs:
                self._outcome = CsmaOutcome.CHANNEL_ACCESS_FAILURE
                return self.Instruction(CsmaAction.FAILURE)
            return self._draw_backoff()
        self._cw -= 1
        if self._cw > 0:
            return self.Instruction(CsmaAction.PERFORM_CCA)
        self._outcome = CsmaOutcome.SUCCESS
        return self.Instruction(CsmaAction.TRANSMIT)

    # -- results --------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the attempt has reached a terminal state."""
        return self._outcome is not None

    def result(self) -> CsmaResult:
        """The statistics of the completed attempt.

        Raises
        ------
        RuntimeError
            If the attempt has not finished yet.
        """
        if self._outcome is None:
            raise RuntimeError("The contention attempt has not finished")
        # Every CCA occupies one backoff slot boundary (8 symbols of sensing
        # within a 20-symbol slot); the contention duration in slots is the
        # sum of the random delays plus one slot per CCA performed.
        duration = self._backoff_slots_waited + self._cca_count
        return CsmaResult(
            outcome=self._outcome,
            backoff_slots_waited=self._backoff_slots_waited,
            cca_count=self._cca_count,
            backoff_attempts=self._backoff_attempts,
            duration_slots=duration,
        )

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("begin() must be called before driving the "
                               "state machine")
