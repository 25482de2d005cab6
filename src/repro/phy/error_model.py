"""Bit- and packet-error models for the 2450 MHz PHY.

Two bit-error models are provided:

``EmpiricalBerModel``
    The paper's measured AWGN regression (equation 1):

        Pr_bit(P_Rx) = 2.35e-30 * exp(-0.659 * P_Rx[dBm])

    valid in the neighbourhood of the CC2420 sensitivity (about -94 dBm to
    -85 dBm).  Because ``P_Rx`` is negative in dBm the exponent is positive
    and the error rate falls steeply with increasing received power, matching
    Figure 4 of the paper.

``AnalyticOqpskErrorModel``
    A from-first-principles model of the DSSS O-QPSK receiver over AWGN,
    used to regenerate a Figure-4-like curve without the measurement bench:
    the per-chip error probability follows the offset-QPSK matched-filter
    bound and the 32-chip nearly-orthogonal block code is approximated by a
    union bound on the minimum code distance.

The packet-error conversion (equation 10 of the paper) assumes independent
bit errors over the packet minus the 4-byte synchronisation preamble:

    Pr_e = 1 - (1 - Pr_bit)^((L_packet - 4) * 8)
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.phy.constants import TIMING_2450MHZ
from repro.phy.frame import PHY_PREAMBLE_BYTES

#: Boltzmann constant [J/K] for thermal-noise computations.
BOLTZMANN_J_PER_K = 1.380649e-23
#: Reference temperature [K].
REFERENCE_TEMPERATURE_K = 290.0


def watt_to_dbm(watt: float) -> float:
    """Convert a power level from watts to dBm.

    Raises
    ------
    ValueError
        If ``watt`` is not strictly positive.
    """
    if watt <= 0.0:
        raise ValueError("Power must be strictly positive to express in dBm")
    return 10.0 * math.log10(watt / 1e-3)


def thermal_noise_power_dbm(bandwidth_hz: float,
                            noise_figure_db: float = 0.0,
                            temperature_k: float = REFERENCE_TEMPERATURE_K) -> float:
    """Thermal noise floor ``kTB`` (plus receiver noise figure) in dBm."""
    if bandwidth_hz <= 0:
        raise ValueError("Bandwidth must be positive")
    noise_w = BOLTZMANN_J_PER_K * temperature_k * bandwidth_hz
    return watt_to_dbm(noise_w) + noise_figure_db


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class ErrorModel(ABC):
    """Interface of a bit-error model parameterised by received power."""

    @abstractmethod
    def bit_error_probability(self, received_power_dbm: float) -> float:
        """Probability that a single data bit is received in error."""

    def bit_error_probability_array(self, received_power_dbm) -> np.ndarray:
        """Vectorised :meth:`bit_error_probability` over an array of powers."""
        powers = np.asarray(received_power_dbm, dtype=float)
        return np.vectorize(self.bit_error_probability)(powers)

    def packet_error_probability(self, received_power_dbm: float,
                                 packet_bytes: int) -> float:
        """Packet-error probability via equation (10) of the paper."""
        ber = self.bit_error_probability(received_power_dbm)
        return packet_error_probability(ber, packet_bytes)


@dataclass(frozen=True)
class EmpiricalBerModel(ErrorModel):
    """The paper's exponential BER regression (equation 1).

    Attributes
    ----------
    coefficient:
        Multiplicative constant (2.35e-30 in the paper).
    exponent_per_dbm:
        Decay rate per dBm of received power (0.659 in the paper).
    """

    coefficient: float = 2.35e-30
    exponent_per_dbm: float = 0.659

    def bit_error_probability(self, received_power_dbm: float) -> float:
        """Evaluate the regression, clipped to the valid range [0, 0.5]."""
        ber = self.coefficient * math.exp(-self.exponent_per_dbm
                                          * received_power_dbm)
        return min(max(ber, 0.0), 0.5)


@dataclass(frozen=True)
class AnalyticOqpskErrorModel(ErrorModel):
    """Analytic DSSS O-QPSK AWGN model (union bound on the block code).

    The per-chip SNR is computed from the received power, the thermal noise
    in the 2 MHz chip-rate bandwidth and the receiver noise figure.  Chip
    decisions behave like antipodal signalling, and a symbol error occurs
    when the received 32-chip block is closer to another code word; the union
    bound over the 15 competitors with the pairwise Hamming distance spectrum
    approximated by the minimum distance gives the symbol-error probability.
    Each symbol error corrupts on average half of its four bits.

    Attributes
    ----------
    noise_figure_db:
        Effective receiver noise figure (including implementation losses of
        the low-cost hard-decision receiver).  The default of 19 dB places
        the waterfall's BER = 1e-4 point near -91 dBm, i.e. in the CC2420's
        measured sensitivity region, so the analytic curve lands close to
        the empirical regression of Figure 4.
    minimum_distance:
        Hamming distance used in the union bound (the true minimum pairwise
        distance of the 802.15.4 code set is 12).
    competitors:
        Number of competing code words (15 for the 16-ary code).
    """

    noise_figure_db: float = 19.0
    minimum_distance: int = 12
    competitors: int = 15

    @property
    def chip_rate_hz(self) -> float:
        """Chip rate defining the noise bandwidth."""
        return TIMING_2450MHZ.chip_rate_hz

    def chip_snr_linear(self, received_power_dbm: float) -> float:
        """Per-chip signal-to-noise ratio (linear)."""
        noise_dbm = thermal_noise_power_dbm(self.chip_rate_hz,
                                            self.noise_figure_db)
        return 10.0 ** ((received_power_dbm - noise_dbm) / 10.0)

    def chip_error_probability(self, received_power_dbm: float) -> float:
        """Probability of a hard chip decision error (antipodal over AWGN)."""
        snr = self.chip_snr_linear(received_power_dbm)
        return q_function(math.sqrt(2.0 * snr))

    def symbol_error_probability(self, received_power_dbm: float) -> float:
        """Union-bound symbol-error probability of the 32-chip block code."""
        p_chip = self.chip_error_probability(received_power_dbm)
        # Probability the received block is closer to one specific competitor
        # at Hamming distance d: the decision flips when more than d/2 of the
        # d differing chip positions are received in error.
        d = self.minimum_distance
        half = d // 2
        pairwise = 0.0
        for errors in range(half + 1, d + 1):
            pairwise += (math.comb(d, errors)
                         * p_chip ** errors * (1.0 - p_chip) ** (d - errors))
        # Ties (exactly d/2 chip errors) are broken randomly.
        pairwise += 0.5 * math.comb(d, half) * p_chip ** half \
            * (1.0 - p_chip) ** (d - half)
        return min(self.competitors * pairwise, 1.0)

    def bit_error_probability(self, received_power_dbm: float) -> float:
        """Bit-error probability: a symbol error corrupts ~half its bits."""
        p_symbol = self.symbol_error_probability(received_power_dbm)
        # For an M-ary orthogonal-like code, P_bit = M/(2(M-1)) * P_symbol.
        m = self.competitors + 1
        return min(0.5, p_symbol * m / (2.0 * (m - 1)))


def packet_error_probability(bit_error_probability: float,
                             packet_bytes: int,
                             preamble_bytes: int = PHY_PREAMBLE_BYTES) -> float:
    """Equation (10): Pr_e = 1 - (1 - Pr_bit)^((L_packet - preamble) * 8).

    Parameters
    ----------
    bit_error_probability:
        Per-bit error probability.
    packet_bytes:
        Total packet size in bytes (``L_packet`` in the paper, i.e. PHY +
        MAC overhead + payload).
    preamble_bytes:
        Synchronisation preamble bytes excluded from the error accounting
        (4 in the paper; errors there only affect acquisition, which the
        model treats as ideal).

    Raises
    ------
    ValueError
        If the probability is outside [0, 1] or the sizes are inconsistent.
    """
    if not 0.0 <= bit_error_probability <= 1.0:
        raise ValueError("bit_error_probability must lie in [0, 1]")
    if packet_bytes < preamble_bytes:
        raise ValueError("packet_bytes must be at least the preamble size")
    n_bits = (packet_bytes - preamble_bytes) * 8
    return 1.0 - (1.0 - bit_error_probability) ** n_bits
