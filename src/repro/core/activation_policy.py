"""Radio activation policies.

The paper's energy-aware policy (Section 4) decides which radio state the
node occupies during every phase of the per-superframe transaction:

* the node *shuts down* between superframes and wakes ~1 ms before the
  beacon to absorb the slow shutdown-to-idle transition;
* it stays in *idle* (not shutdown) between the clear channel assessments
  of the contention procedure, because re-entering idle from shutdown would
  cost another 1 ms;
* it returns to *idle* during the minimum acknowledgement turnaround
  (``t-ack``) and only turns the receiver on for the acknowledgement window;
* it shuts down immediately after the transaction completes.

Two deliberately worse variants quantify what the policy saves:

* ``ALWAYS_IDLE`` — the node never shuts down (it idles between
  superframes), isolating the benefit of the shutdown state;
* ``RX_UNTIL_BEACON`` — the node wakes at the same point but keeps the
  receiver on until the beacon instead of idling, isolating the benefit of
  the pre-emptive wake-up timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.radio.power_profile import (
    CC2420_PROFILE,
    RadioPowerProfile,
    T_SHUTDOWN_TO_IDLE_POLICY_S,
)
from repro.radio.states import RadioState


class PolicyVariant(Enum):
    """Selectable activation policies."""

    PAPER = "paper"
    ALWAYS_IDLE = "always_idle"
    RX_UNTIL_BEACON = "rx_until_beacon"


@dataclass(frozen=True)
class ActivationPolicy:
    """Parameters of the radio activation policy.

    Attributes
    ----------
    variant:
        Which policy variant is modelled.
    wake_lead_time_s:
        How long before the beacon the chip is strobed out of shutdown
        (1 ms in the paper, covering the ~970 µs startup).
    idle_between_ccas:
        Whether the radio returns to idle between CCAs (paper policy) or
        stays in receive (a pessimistic variant).
    shutdown_after_transaction:
        Whether the node shuts down after the acknowledgement (paper policy)
        or merely idles until the next superframe.
    shutdown_between_superframes:
        Whether the inactive portion of the superframe is spent in shutdown
        (paper policy) or in idle (``ALWAYS_IDLE`` ablation).
    profile:
        Radio profile the policy is designed for.
    """

    variant: PolicyVariant = PolicyVariant.PAPER
    wake_lead_time_s: float = T_SHUTDOWN_TO_IDLE_POLICY_S
    idle_between_ccas: bool = True
    shutdown_after_transaction: bool = True
    shutdown_between_superframes: bool = True
    profile: RadioPowerProfile = CC2420_PROFILE

    def __post_init__(self):
        if self.wake_lead_time_s < 0:
            raise ValueError("wake_lead_time_s must be non-negative")

    # -- constructors ----------------------------------------------------------------
    @classmethod
    def paper(cls, profile: RadioPowerProfile = CC2420_PROFILE) -> "ActivationPolicy":
        """The paper's energy-aware policy."""
        return cls(variant=PolicyVariant.PAPER, profile=profile)

    @classmethod
    def always_idle(cls, profile: RadioPowerProfile = CC2420_PROFILE) -> "ActivationPolicy":
        """Ablation: the node never enters shutdown."""
        return cls(variant=PolicyVariant.ALWAYS_IDLE,
                   wake_lead_time_s=0.0,
                   shutdown_after_transaction=False,
                   shutdown_between_superframes=False,
                   profile=profile)

    @classmethod
    def rx_until_beacon(cls, profile: RadioPowerProfile = CC2420_PROFILE) -> "ActivationPolicy":
        """Ablation: the node keeps the receiver on from wake-up to beacon."""
        return cls(variant=PolicyVariant.RX_UNTIL_BEACON,
                   idle_between_ccas=True,
                   profile=profile)

    # -- derived quantities --------------------------------------------------------------
    @property
    def pre_beacon_state(self) -> RadioState:
        """State occupied between wake-up and the beacon."""
        if self.variant is PolicyVariant.RX_UNTIL_BEACON:
            return RadioState.RX
        return RadioState.IDLE

    @property
    def inactive_state(self) -> RadioState:
        """State occupied during the inactive portion of the superframe."""
        if self.shutdown_between_superframes:
            return RadioState.SHUTDOWN
        return RadioState.IDLE

    @property
    def contention_wait_state(self) -> RadioState:
        """State occupied during the random backoff delays."""
        return RadioState.IDLE if self.idle_between_ccas else RadioState.RX

    @property
    def wakeup_is_required(self) -> bool:
        """Whether a shutdown-to-idle wake-up happens every superframe."""
        return self.shutdown_between_superframes

    def wakeup_energy_j(self) -> float:
        """Energy of the shutdown-to-idle transition (zero if never used)."""
        if not self.wakeup_is_required:
            return 0.0
        return self.profile.transition_energy_j(RadioState.SHUTDOWN, RadioState.IDLE)
