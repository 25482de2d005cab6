"""Timing constants of the IEEE 802.15.4-2003 physical layers.

The paper works exclusively in the 2450 MHz band: O-QPSK with direct-sequence
spread spectrum at 2 Mchip/s, 32 chips per 4-bit symbol, which gives a 16 µs
symbol period, a 32 µs byte period and a 250 kbit/s gross rate.  The slotted
CSMA/CA backoff slot is 20 symbols (320 µs).  All constants are expressed in
SI units (seconds, bits per second).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PhyTiming:
    """Timing parameters of one 802.15.4 PHY option.

    Attributes
    ----------
    name:
        Human-readable identifier of the PHY option.
    chip_rate_hz:
        Spreading chip rate in chip/s.
    chips_per_symbol:
        Length of the pseudo-noise sequence representing one symbol.
    bits_per_symbol:
        Number of data bits carried by one symbol.
    """

    name: str
    chip_rate_hz: float
    chips_per_symbol: int
    bits_per_symbol: int

    @property
    def symbol_rate_hz(self) -> float:
        """Symbols per second."""
        return self.chip_rate_hz / self.chips_per_symbol

    @property
    def symbol_period_s(self) -> float:
        """Duration of one symbol (T_S in the paper; 16 µs at 2450 MHz)."""
        return 1.0 / self.symbol_rate_hz

    @property
    def bit_rate_bps(self) -> float:
        """Gross data rate in bit/s (250 kbit/s at 2450 MHz)."""
        return self.symbol_rate_hz * self.bits_per_symbol

    @property
    def byte_period_s(self) -> float:
        """Time to transmit one octet (T_B in the paper; 32 µs at 2450 MHz)."""
        return 8.0 / self.bit_rate_bps


#: The 2450 MHz O-QPSK/DSSS PHY the paper (and the CC2420) uses:
#: 2 Mchip/s, 32-chip symbols, 4 bits per symbol -> 250 kbit/s.
TIMING_2450MHZ = PhyTiming(
    name="2450MHz O-QPSK",
    chip_rate_hz=2_000_000.0,
    chips_per_symbol=32,
    bits_per_symbol=4,
)

#: The 915 MHz BPSK PHY (US only) -- 40 kbit/s. Included for completeness of
#: the standard model; the paper's analysis is restricted to 2450 MHz.
TIMING_915MHZ = PhyTiming(
    name="915MHz BPSK",
    chip_rate_hz=600_000.0,
    chips_per_symbol=15,
    bits_per_symbol=1,
)

#: The 868 MHz BPSK PHY (EU/Japan) -- 20 kbit/s.
TIMING_868MHZ = PhyTiming(
    name="868MHz BPSK",
    chip_rate_hz=300_000.0,
    chips_per_symbol=15,
    bits_per_symbol=1,
)

#: Symbols in aTurnaroundTime (RX<->TX turnaround of the standard).
TURNAROUND_SYMBOLS = 12

#: Minimum time between a data frame and its acknowledgement
#: (t-ack in the paper): 192 us at 2450 MHz = aTurnaroundTime.
T_ACK_MIN_S = TURNAROUND_SYMBOLS * TIMING_2450MHZ.symbol_period_s

#: Maximum time a transmitter waits for an acknowledgement
#: (t+ack in the paper): 864 us = macAckWaitDuration (54 symbols).
ACK_WAIT_SYMBOLS = 54
T_ACK_MAX_S = ACK_WAIT_SYMBOLS * TIMING_2450MHZ.symbol_period_s

#: Long interframe spacing (frames > aMaxSIFSFrameSize octets): 40 symbols.
LIFS_SYMBOLS = 40
#: Short interframe spacing: 12 symbols.
SIFS_SYMBOLS = 12
#: MPDU size above which the long IFS applies (aMaxSIFSFrameSize).
MAX_SIFS_FRAME_SIZE_BYTES = 18

#: Maximum PHY service data unit (aMaxPHYPacketSize) in octets.
MAX_PHY_PACKET_SIZE_BYTES = 127

#: Duration of the clear channel assessment (8 symbols per the standard).
CCA_DURATION_SYMBOLS = 8
CCA_DURATION_S = CCA_DURATION_SYMBOLS * TIMING_2450MHZ.symbol_period_s

#: Receiver sensitivity required by the standard at 2450 MHz (dBm).  The
#: CC2420 datasheet specifies -95 dBm typical; the paper's BER curve spans
#: -94 .. -85 dBm.
STANDARD_SENSITIVITY_DBM = -85.0
CC2420_SENSITIVITY_DBM = -94.0
