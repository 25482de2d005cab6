"""Superframe structure of the beacon-enabled mode (Figure 2 of the paper).

A superframe starts with the beacon and contains 16 equally sized slots.
The standard lets the coordinator end the active portion with a
contention-free period of guaranteed time slots; the paper dismisses those
for dense networks (Section 2, quantified in
:mod:`repro.core.gts_comparison`), so here the contention access period
(CAP, slotted CSMA/CA) runs from the end of the beacon to the end of the
active portion.  The inter-beacon period is ``aBaseSuperframeDuration x
2^BO`` (equation 12); the active portion lasts ``aBaseSuperframeDuration x
2^SO`` with SO <= BO.  When SO < BO the coordinator and all devices may
sleep between the end of the active portion and the next beacon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mac.constants import MAC_2450MHZ, MacConstants


@dataclass(frozen=True)
class SuperframeConfig:
    """Static configuration of the superframe structure.

    Attributes
    ----------
    beacon_order:
        BO; the inter-beacon period is T_ib_min x 2^BO.
    superframe_order:
        SO <= BO; duration of the active portion.
    constants:
        MAC constants (default: 2450 MHz PHY).
    """

    beacon_order: int = 6
    superframe_order: int = 6
    constants: MacConstants = field(default=MAC_2450MHZ)

    def __post_init__(self):
        self.constants.validate_beacon_order(self.beacon_order)
        self.constants.validate_beacon_order(self.superframe_order)
        if self.superframe_order > self.beacon_order:
            raise ValueError(
                f"Superframe order ({self.superframe_order}) must not exceed "
                f"beacon order ({self.beacon_order})")

    @property
    def beacon_interval_s(self) -> float:
        """Inter-beacon period T_ib (equation 12)."""
        return self.constants.beacon_interval_s(self.beacon_order)

    @property
    def superframe_duration_s(self) -> float:
        """Duration of the active portion."""
        return self.constants.superframe_duration_s(self.superframe_order)

    @property
    def slot_duration_s(self) -> float:
        """Duration of one of the 16 superframe slots."""
        return self.constants.slot_duration_s(self.superframe_order)

    @property
    def inactive_duration_s(self) -> float:
        """Time between the end of the active portion and the next beacon."""
        return self.beacon_interval_s - self.superframe_duration_s

    @property
    def duty_cycle(self) -> float:
        """Fraction of time the superframe is active (1.0 when SO == BO)."""
        return self.superframe_duration_s / self.beacon_interval_s

    @property
    def backoff_slots_per_superframe(self) -> int:
        """Number of CSMA/CA backoff slots in the active portion."""
        return int(round(self.superframe_duration_s
                         / self.constants.unit_backoff_period_s))

    def offered_load(self, nodes: int, payload_bytes: int,
                     packets_per_node_per_beacon: float = 1.0) -> float:
        """Aggregate network load λ relative to the channel gross rate.

        λ = (nodes x packets x payload bits) / (T_ib x bit rate).
        """
        if nodes < 0 or payload_bytes < 0 or packets_per_node_per_beacon < 0:
            raise ValueError("Load inputs must be non-negative")
        bits = nodes * packets_per_node_per_beacon * payload_bytes * 8
        return bits / (self.beacon_interval_s * self.constants.timing.bit_rate_bps)


class Superframe:
    """One concrete superframe instance anchored at a beacon time.

    Combines the static :class:`SuperframeConfig` with this beacon's time
    and airtime, and answers slot-geometry queries (which CSMA backoff slots
    belong to the CAP, whether a transaction still fits in it, ...).
    """

    def __init__(self, config: SuperframeConfig, beacon_time_s: float = 0.0,
                 beacon_airtime_s: float = 0.0):
        self.config = config
        self.beacon_time_s = beacon_time_s
        self.beacon_airtime_s = beacon_airtime_s

    # -- boundaries -----------------------------------------------------------------
    @property
    def end_time_s(self) -> float:
        """Time of the next beacon."""
        return self.beacon_time_s + self.config.beacon_interval_s

    @property
    def active_end_time_s(self) -> float:
        """End of the active portion, which is also the end of the CAP."""
        return self.beacon_time_s + self.config.superframe_duration_s

    @property
    def cap_start_time_s(self) -> float:
        """Start of the contention access period (right after the beacon)."""
        return self.beacon_time_s + self.beacon_airtime_s

    @property
    def cap_duration_s(self) -> float:
        """Duration of the contention access period."""
        return self.active_end_time_s - self.cap_start_time_s

    # -- queries -----------------------------------------------------------------------
    def in_cap(self, time_s: float) -> bool:
        """Whether ``time_s`` falls in the contention access period."""
        return self.cap_start_time_s <= time_s < self.active_end_time_s

    def backoff_slot_boundary_after(self, time_s: float) -> float:
        """First CSMA backoff-slot boundary at or after ``time_s``.

        Slot boundaries are anchored at the start of the CAP, as required by
        the slotted CSMA/CA algorithm.
        """
        period = self.config.constants.unit_backoff_period_s
        if time_s <= self.cap_start_time_s:
            return self.cap_start_time_s
        offset = time_s - self.cap_start_time_s
        slots = int(offset / period)
        if abs(offset - slots * period) < 1e-12:
            return self.cap_start_time_s + slots * period
        return self.cap_start_time_s + (slots + 1) * period

    def transaction_fits_in_cap(self, start_time_s: float,
                                transaction_duration_s: float) -> bool:
        """Whether a transaction starting at ``start_time_s`` ends in the CAP."""
        return start_time_s + transaction_duration_s <= self.active_end_time_s
