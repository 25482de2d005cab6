"""Fitting the empirical BER regression (reproduction of Figure 4).

The paper measures the bit-error rate of a CC2420 pair connected through
calibrated attenuators and fits an exponential regression

    Pr_bit(P_Rx) = c * exp(-k * P_Rx[dBm])          (equation 1)

with c = 2.35e-30 and k = 0.659.  This module provides

* :func:`fit_exponential_ber` — least-squares fit of (c, k) in log space from
  (received power, observed BER) pairs, exactly how such a regression is
  obtained from bench data;
* :class:`BerCalibration` — an end-to-end calibration campaign that generates
  synthetic bench observations from a ground-truth error model (the wired
  test bench of :mod:`repro.channel.wired` or any :class:`ErrorModel`),
  fits the regression and reports goodness-of-fit, substituting for the
  physical attenuator bench we do not have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.phy.error_model import EmpiricalBerModel, ErrorModel


def fit_exponential_ber(received_power_dbm: Sequence[float],
                        bit_error_rate: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit of ``ber = c * exp(-k * power_dbm)``.

    The fit is linear in log space: ``log(ber) = log(c) - k * power``.

    Parameters
    ----------
    received_power_dbm:
        Received power levels of the observations.
    bit_error_rate:
        Observed bit-error rates (must be strictly positive).

    Returns
    -------
    (c, k):
        Coefficient and decay rate of the regression.

    Raises
    ------
    ValueError
        On mismatched lengths, fewer than two points, or non-positive BERs.
    """
    power = np.asarray(received_power_dbm, dtype=float)
    ber = np.asarray(bit_error_rate, dtype=float)
    if power.shape != ber.shape:
        raise ValueError("Power and BER arrays must have the same shape")
    if power.size < 2:
        raise ValueError("At least two observations are required for a fit")
    if np.any(ber <= 0.0):
        raise ValueError("Bit-error rates must be strictly positive to fit "
                         "in log space")
    log_ber = np.log(ber)
    # log(ber) = log(c) - k * power  ->  linear regression.
    slope, intercept = np.polyfit(power, log_ber, 1)
    k = -slope
    c = math.exp(intercept)
    return c, k


@dataclass
class CalibrationResult:
    """Outcome of a BER calibration campaign."""

    coefficient: float
    exponent_per_dbm: float
    power_grid_dbm: np.ndarray
    observed_ber: np.ndarray
    fitted_ber: np.ndarray
    rms_log_error: float


class BerCalibration:
    """Synthetic replacement of the paper's attenuator measurement bench.

    Parameters
    ----------
    ground_truth:
        The error model playing the role of the physical link (defaults to
        the paper's own regression so the calibration round-trips on itself;
        experiments also pass the analytic O-QPSK model or the chip-level
        wired bench).
    rng:
        Random generator for measurement noise; ``None`` disables noise.
    bits_per_point:
        Number of bits "observed" per power level; finite values introduce
        binomial estimation noise like a real bench would.
    """

    def __init__(self, ground_truth: Optional[ErrorModel] = None,
                 rng: Optional[np.random.Generator] = None,
                 bits_per_point: Optional[int] = None):
        self.ground_truth = ground_truth or EmpiricalBerModel()
        self.rng = rng
        self.bits_per_point = bits_per_point

    def observe(self, received_power_dbm: float) -> float:
        """One bench observation of the BER at ``received_power_dbm``."""
        true_ber = self.ground_truth.bit_error_probability(received_power_dbm)
        if self.rng is None or self.bits_per_point is None:
            return true_ber
        if true_ber <= 0.0:
            return 0.0
        errors = self.rng.binomial(self.bits_per_point, min(true_ber, 1.0))
        return errors / self.bits_per_point

    def run(self, power_grid_dbm: Optional[Sequence[float]] = None) -> CalibrationResult:
        """Run the campaign over ``power_grid_dbm`` and fit the regression.

        The default grid matches Figure 4 of the paper: -94 dBm to -85 dBm in
        1 dB steps.
        """
        if power_grid_dbm is None:
            power_grid_dbm = np.arange(-94.0, -84.0, 1.0)
        grid = np.asarray(power_grid_dbm, dtype=float)
        observed = np.array([self.observe(p) for p in grid])
        positive = observed > 0
        if positive.sum() < 2:
            raise ValueError(
                "Calibration requires at least two power levels with a "
                "non-zero observed bit-error rate; increase bits_per_point "
                "or extend the grid towards lower received power")
        c, k = fit_exponential_ber(grid[positive], observed[positive])
        fitted = c * np.exp(-k * grid)
        log_err = np.log(fitted[positive]) - np.log(observed[positive])
        rms = float(np.sqrt(np.mean(log_err ** 2)))
        return CalibrationResult(
            coefficient=c,
            exponent_per_dbm=k,
            power_grid_dbm=grid,
            observed_ber=observed,
            fitted_ber=fitted,
            rms_log_error=rms,
        )
