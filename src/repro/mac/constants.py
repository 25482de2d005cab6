"""MAC sublayer constants of IEEE 802.15.4-2003.

The values are the standard's ``a``-prefixed constants and the default PIB
attributes, specialised to the 2450 MHz PHY where durations in symbols are
converted to seconds.  The paper's model parameters map onto them as:

* ``T_slot = 20 T_S``           -> ``aUnitBackoffPeriod``
* ``t-ack = 192 us``            -> ``aTurnaroundTime``
* ``t+ack = 864 us``            -> ``macAckWaitDuration``
* ``T_ib_min = 15.36 ms``       -> ``aBaseSuperframeDuration``
* backoff exponent range 3..5   -> ``macMinBE`` .. ``aMaxBE``
* at most 2 BE increments       -> ``macMaxCSMABackoffs = 4`` in the standard,
  but the paper describes the procedure aborting after the exponent "has been
  incremented twice", i.e. 3 backoff attempts; both are supported through
  :class:`repro.mac.csma.CsmaParameters`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.phy.constants import PhyTiming, TIMING_2450MHZ


@dataclass(frozen=True)
class MacConstants:
    """MAC constants bound to one PHY timing option.

    Attributes
    ----------
    timing:
        The underlying PHY timing (symbol period, byte period, ...).
    base_slot_duration_symbols:
        ``aBaseSlotDuration``: symbols in one superframe slot at SO = 0.
    num_superframe_slots:
        ``aNumSuperframeSlots``: slots per superframe (16).
    unit_backoff_period_symbols:
        ``aUnitBackoffPeriod``: CSMA/CA backoff slot length in symbols (20).
    turnaround_time_symbols:
        ``aTurnaroundTime``: RX/TX turnaround (12 symbols = 192 µs).
    ack_wait_duration_symbols:
        ``macAckWaitDuration``: maximum wait for an ACK (54 symbols = 864 µs).
    min_be / max_be:
        Default backoff exponent range (3..5).
    max_csma_backoffs:
        ``macMaxCSMABackoffs``: CCA failures tolerated before reporting a
        channel access failure.
    max_frame_retries:
        ``aMaxFrameRetries``: retransmissions after a missed ACK (the paper
        limits total transmissions to N_max = 5, i.e. 4 retries).
    battery_life_extension_max_be:
        Cap on the backoff exponent when battery-life extension is enabled.
    max_beacon_order:
        Largest allowed beacon order (15 disables beacons entirely).
    """

    timing: PhyTiming = TIMING_2450MHZ
    base_slot_duration_symbols: int = 60
    num_superframe_slots: int = 16
    unit_backoff_period_symbols: int = 20
    turnaround_time_symbols: int = 12
    ack_wait_duration_symbols: int = 54
    min_be: int = 3
    max_be: int = 5
    max_csma_backoffs: int = 4
    max_frame_retries: int = 4
    battery_life_extension_max_be: int = 2
    max_beacon_order: int = 15

    # -- derived durations -------------------------------------------------------
    @property
    def symbol_period_s(self) -> float:
        """Symbol period of the bound PHY."""
        return self.timing.symbol_period_s

    @property
    def base_superframe_duration_symbols(self) -> int:
        """``aBaseSuperframeDuration`` = slots x slot duration (960 symbols)."""
        return self.base_slot_duration_symbols * self.num_superframe_slots

    @property
    def base_superframe_duration_s(self) -> float:
        """Minimum inter-beacon period T_ib_min (15.36 ms at 2450 MHz)."""
        return self.base_superframe_duration_symbols * self.symbol_period_s

    @property
    def unit_backoff_period_s(self) -> float:
        """CSMA/CA backoff slot duration (T_slot = 320 µs at 2450 MHz)."""
        return self.unit_backoff_period_symbols * self.symbol_period_s

    @property
    def turnaround_time_s(self) -> float:
        """t-ack: minimum delay before the acknowledgement (192 µs)."""
        return self.turnaround_time_symbols * self.symbol_period_s

    @property
    def ack_wait_duration_s(self) -> float:
        """t+ack: maximum time spent waiting for an acknowledgement (864 µs)."""
        return self.ack_wait_duration_symbols * self.symbol_period_s

    @property
    def max_transmissions(self) -> int:
        """N_max of the paper: initial transmission plus retries."""
        return self.max_frame_retries + 1

    # -- superframe timing ---------------------------------------------------------
    def beacon_interval_s(self, beacon_order: int) -> float:
        """Inter-beacon period for a beacon order BO (equation 12)."""
        self.validate_beacon_order(beacon_order)
        return self.base_superframe_duration_s * (2 ** beacon_order)

    def superframe_duration_s(self, superframe_order: int) -> float:
        """Active superframe duration for a superframe order SO."""
        self.validate_beacon_order(superframe_order)
        return self.base_superframe_duration_s * (2 ** superframe_order)

    def slot_duration_s(self, superframe_order: int) -> float:
        """Duration of one of the 16 superframe slots at order SO."""
        return self.superframe_duration_s(superframe_order) / self.num_superframe_slots

    def validate_beacon_order(self, order: int) -> None:
        """Raise :class:`ValueError` if ``order`` is outside 0..14.

        (Order 15 means "no beacons"; the paper always operates in beacon
        mode so 15 is rejected here and handled explicitly by callers that
        support beaconless operation.)
        """
        if not 0 <= order <= self.max_beacon_order - 1:
            raise ValueError(
                f"Beacon/superframe order must lie in 0..{self.max_beacon_order - 1}, "
                f"got {order}")


#: MAC constants bound to the 2450 MHz PHY (the configuration of the paper).
MAC_2450MHZ = MacConstants()

#: Protocol phases of one superframe (Figure 9a of the paper).  Both MAC
#: kernels tag their energy ledgers with these labels, and the analytical
#: model (:mod:`repro.core.energy_model`) uses the same ones, so simulated
#: and modelled breakdowns compare key by key.
PHASE_BEACON = "beacon"
PHASE_CONTENTION = "contention"
PHASE_TRANSMIT = "transmit"
PHASE_ACK = "ackifs"
PHASE_SLEEP = "sleep"
