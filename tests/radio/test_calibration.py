"""Unit tests of the BER regression fitting (Figure 4 calibration)."""

import numpy as np
import pytest

from repro.phy.error_model import AnalyticOqpskErrorModel, EmpiricalBerModel
from repro.radio.calibration import BerCalibration, fit_exponential_ber


class TestFitExponentialBer:
    def test_recovers_exact_parameters(self):
        powers = np.arange(-94.0, -84.0, 1.0)
        truth = EmpiricalBerModel()
        bers = truth.bit_error_probability_array(powers)
        c, k = fit_exponential_ber(powers, bers)
        assert k == pytest.approx(0.659, rel=1e-6)
        assert c == pytest.approx(2.35e-30, rel=1e-3)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential_ber([1.0, 2.0], [0.1])

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_exponential_ber([-90.0], [1e-4])

    def test_non_positive_ber_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential_ber([-90.0, -89.0], [1e-4, 0.0])

    def test_fit_with_noise_stays_close(self):
        rng = np.random.default_rng(0)
        powers = np.arange(-94.0, -84.0, 0.5)
        truth = EmpiricalBerModel()
        bers = truth.bit_error_probability_array(powers) \
            * np.exp(rng.normal(0.0, 0.1, size=powers.size))
        _, k = fit_exponential_ber(powers, bers)
        assert k == pytest.approx(0.659, rel=0.1)


class TestBerCalibration:
    def test_noiseless_roundtrip(self):
        result = BerCalibration().run()
        assert result.exponent_per_dbm == pytest.approx(0.659, rel=1e-6)
        assert result.rms_log_error < 1e-9
        assert result.coefficient == pytest.approx(
            EmpiricalBerModel().coefficient, rel=1e-6)

    def test_noisy_bench_recovers_exponent(self):
        rng = np.random.default_rng(7)
        calibration = BerCalibration(rng=rng, bits_per_point=500_000)
        result = calibration.run()
        assert result.exponent_per_dbm == pytest.approx(0.659, rel=0.25)

    def test_analytic_ground_truth(self):
        calibration = BerCalibration(ground_truth=AnalyticOqpskErrorModel())
        result = calibration.run(np.arange(-94.0, -88.0, 1.0))
        # The analytic waterfall is steeper than the measured regression but
        # the fitted exponent must stay positive and finite.
        assert result.exponent_per_dbm > 0.0
        assert np.isfinite(result.coefficient)

    def test_all_zero_observations_raise(self):
        calibration = BerCalibration(rng=np.random.default_rng(0),
                                     bits_per_point=10)
        with pytest.raises(ValueError):
            calibration.run(np.array([-60.0, -61.0]))

    def test_observe_without_noise_matches_model(self):
        calibration = BerCalibration()
        truth = EmpiricalBerModel()
        assert calibration.observe(-90.0) == pytest.approx(
            truth.bit_error_probability(-90.0))
