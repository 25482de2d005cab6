"""Wired attenuator test bench (substitute for the paper's BER measurement).

The paper estimates the CC2420 bit-error probability on a bench made of a
transmitting CC2420 wired through calibrated attenuators to a receiving
CC2420, which reproduces AWGN conditions with precisely controlled received
power.  We do not have the hardware, so this module provides a *chip-level
Monte-Carlo link simulator* with the same interface: set an attenuation,
push bytes through, count bit errors.

The receiver applies hard chip decisions followed by minimum-distance
despreading — the same low-complexity architecture as the real chip — so the
resulting BER-vs-power curve has the correct waterfall shape; the noise
figure of the analytic model is chosen so the curve lands in the paper's
measured region (BER 1e-5..1e-2 between -93 and -88 dBm).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.phy.error_model import AnalyticOqpskErrorModel
from repro.phy.modulation import OqpskDsssModulator


@dataclass
class BenchMeasurement:
    """Result of one test-bench run at a fixed attenuation."""

    attenuation_db: float
    tx_power_dbm: float
    received_power_dbm: float
    bits_sent: int
    bit_errors: int

    @property
    def bit_error_rate(self) -> float:
        """Observed bit-error rate (0 if no bits were sent)."""
        if self.bits_sent == 0:
            return 0.0
        return self.bit_errors / self.bits_sent


class WiredTestBench:
    """Chip-level Monte-Carlo replacement of the attenuator bench.

    Parameters
    ----------
    tx_power_dbm:
        Output power of the transmitting radio (0 dBm on the bench).
    noise_figure_db:
        Receiver noise figure of the simulated CC2420 front end; the default
        matches :class:`AnalyticOqpskErrorModel` so chip-level simulation and
        the analytic model agree.
    rng:
        Random generator for the AWGN chip noise.
    """

    def __init__(self, tx_power_dbm: float = 0.0,
                 noise_figure_db: float = 19.0,
                 rng: Optional[np.random.Generator] = None):
        self.tx_power_dbm = tx_power_dbm
        self.noise_figure_db = noise_figure_db
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.modulator = OqpskDsssModulator()
        self._analytic = AnalyticOqpskErrorModel(noise_figure_db=noise_figure_db)

    # -- channel -----------------------------------------------------------
    def received_power_dbm(self, attenuation_db: float) -> float:
        """Received power after the programmable attenuator."""
        return self.tx_power_dbm - attenuation_db

    def chip_error_probability(self, attenuation_db: float) -> float:
        """Per-chip hard-decision error probability at this attenuation."""
        rx = self.received_power_dbm(attenuation_db)
        return self._analytic.chip_error_probability(rx)

    # -- measurements --------------------------------------------------------
    def transmit_bytes(self, payload: bytes, attenuation_db: float) -> BenchMeasurement:
        """Send ``payload`` through the bench once and count bit errors."""
        chips = self.modulator.modulate(payload)
        p_chip = self.chip_error_probability(attenuation_db)
        noise = self.rng.random(chips.size) < p_chip
        received_chips = chips ^ noise.astype(np.uint8)
        decoded = self.modulator.demodulate(received_chips)
        bit_errors = _count_bit_errors(payload, decoded)
        return BenchMeasurement(
            attenuation_db=attenuation_db,
            tx_power_dbm=self.tx_power_dbm,
            received_power_dbm=self.received_power_dbm(attenuation_db),
            bits_sent=len(payload) * 8,
            bit_errors=bit_errors,
        )

    def measure_ber(self, attenuation_db: float,
                    total_bits: int = 80_000,
                    packet_bytes: int = 100) -> BenchMeasurement:
        """Estimate the BER at one attenuation by streaming random packets."""
        if total_bits <= 0:
            raise ValueError("total_bits must be positive")
        bits_sent = 0
        bit_errors = 0
        while bits_sent < total_bits:
            payload = bytes(self.rng.integers(0, 256, size=packet_bytes,
                                              dtype=np.uint8).tolist())
            result = self.transmit_bytes(payload, attenuation_db)
            bits_sent += result.bits_sent
            bit_errors += result.bit_errors
        return BenchMeasurement(
            attenuation_db=attenuation_db,
            tx_power_dbm=self.tx_power_dbm,
            received_power_dbm=self.received_power_dbm(attenuation_db),
            bits_sent=bits_sent,
            bit_errors=bit_errors,
        )


def _count_bit_errors(sent: bytes, received: bytes) -> int:
    """Number of differing bits between two equal-length byte strings."""
    if len(sent) != len(received):
        raise ValueError("Byte strings must have equal length")
    sent_arr = np.frombuffer(sent, dtype=np.uint8)
    recv_arr = np.frombuffer(received, dtype=np.uint8)
    xored = np.bitwise_xor(sent_arr, recv_arr)
    return int(np.unpackbits(xored).sum())
