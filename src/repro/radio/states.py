"""Radio operating states and the legal transitions between them.

The CC2420 supports four states (Section 3 of the paper):

1. ``SHUTDOWN`` — crystal oscillator off, chip waiting for a startup strobe;
2. ``IDLE`` — oscillator running, chip accepts commands;
3. ``TX`` — transmitting;
4. ``RX`` — receiving (also used for clear channel assessment).

Direct transitions between TX and RX exist in the real chip (turnaround),
but the paper's activation policy always passes through IDLE between active
states, so the transition graph below marks SHUTDOWN<->TX/RX and TX<->RX as
illegal for the modelled policy; attempting them raises
:class:`IllegalTransitionError`.  The RX/TX turnaround needed between a data
frame and its acknowledgement is modelled explicitly at the MAC level using
``aTurnaroundTime``.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, FrozenSet, Tuple


class RadioState(Enum):
    """The four operating states of the transceiver."""

    SHUTDOWN = "shutdown"
    IDLE = "idle"
    RX = "rx"
    TX = "tx"


class IllegalTransitionError(RuntimeError):
    """Raised when a transition not allowed by the activation policy is requested."""


#: Transitions allowed by the modelled activation policy (self-loops excluded).
ALLOWED_TRANSITIONS: FrozenSet[Tuple[RadioState, RadioState]] = frozenset({
    (RadioState.SHUTDOWN, RadioState.IDLE),
    (RadioState.IDLE, RadioState.SHUTDOWN),
    (RadioState.IDLE, RadioState.RX),
    (RadioState.IDLE, RadioState.TX),
    (RadioState.RX, RadioState.IDLE),
    (RadioState.TX, RadioState.IDLE),
})


def is_transition_allowed(source: RadioState, target: RadioState) -> bool:
    """Whether the activation policy permits going from ``source`` to ``target``."""
    if source == target:
        return True
    return (source, target) in ALLOWED_TRANSITIONS


def transition_path(source: RadioState, target: RadioState) -> Tuple[Tuple[RadioState, RadioState], ...]:
    """Sequence of allowed hops to go from ``source`` to ``target``.

    Disallowed direct transitions are decomposed through IDLE, mirroring how
    the driver of the real chip sequences strobes (e.g. RX -> IDLE -> TX).

    Returns
    -------
    tuple of (state, state) pairs
        The individual hops; empty if ``source == target``.
    """
    if source == target:
        return ()
    if is_transition_allowed(source, target):
        return ((source, target),)
    # All states are reachable through IDLE in at most two hops.
    first = (source, RadioState.IDLE)
    second = (RadioState.IDLE, target)
    if not (is_transition_allowed(*first) and is_transition_allowed(*second)):
        raise IllegalTransitionError(
            f"No allowed path from {source.value} to {target.value}")
    return (first, second)


#: Human-readable labels used by reports and tables.
STATE_LABELS: Dict[RadioState, str] = {
    RadioState.SHUTDOWN: "Shutdown",
    RadioState.IDLE: "Idle",
    RadioState.RX: "Receive",
    RadioState.TX: "Transmit",
}
