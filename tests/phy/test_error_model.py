"""Unit and property tests of the bit/packet error models (equations 1, 10)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.error_model import (
    AnalyticOqpskErrorModel,
    EmpiricalBerModel,
    packet_error_probability,
    q_function,
    thermal_noise_power_dbm,
    watt_to_dbm,
)


class TestUnitConversions:
    def test_watt_to_dbm(self):
        assert watt_to_dbm(1e-3) == pytest.approx(0.0)
        assert watt_to_dbm(1.0) == pytest.approx(30.0)
        assert watt_to_dbm(1e-6) == pytest.approx(-30.0)

    def test_watt_to_dbm_requires_positive(self):
        with pytest.raises(ValueError):
            watt_to_dbm(0.0)

    def test_thermal_noise_2mhz_is_about_minus_111_dbm(self):
        noise = thermal_noise_power_dbm(2e6)
        assert noise == pytest.approx(-110.98, abs=0.3)

    def test_thermal_noise_requires_positive_bandwidth(self):
        with pytest.raises(ValueError):
            thermal_noise_power_dbm(0.0)

    def test_q_function_values(self):
        assert q_function(0.0) == pytest.approx(0.5)
        assert q_function(1.6448536) == pytest.approx(0.05, rel=1e-3)
        assert q_function(10.0) < 1e-20


class TestEmpiricalBerModel:
    """Equation (1): Pr_bit = 2.35e-30 exp(-0.659 P_Rx)."""

    def setup_method(self):
        self.model = EmpiricalBerModel()

    def test_ber_at_minus_90_dbm_is_about_1e_4(self):
        ber = self.model.bit_error_probability(-90.0)
        assert 3e-5 < ber < 5e-4

    def test_ber_decreases_with_received_power(self):
        powers = np.arange(-94.0, -80.0, 1.0)
        bers = self.model.bit_error_probability_array(powers)
        assert all(b2 < b1 for b1, b2 in zip(bers, bers[1:]))

    def test_ber_clipped_to_half(self):
        assert self.model.bit_error_probability(-200.0) == 0.5

    def test_one_db_changes_ber_by_factor_exp_0659(self):
        ratio = (self.model.bit_error_probability(-91.0)
                 / self.model.bit_error_probability(-90.0))
        assert ratio == pytest.approx(math.exp(0.659), rel=1e-6)

    def test_figure4_range(self):
        # Figure 4 spans roughly 1e-6..1e-2 between -85 and -94 dBm.
        assert self.model.bit_error_probability(-85.0) < 1e-4
        assert self.model.bit_error_probability(-94.0) > 1e-4

    def test_packet_error_convenience(self):
        pe = self.model.packet_error_probability(-90.0, packet_bytes=133)
        assert 0.0 < pe < 1.0


class TestAnalyticModel:
    def setup_method(self):
        self.model = AnalyticOqpskErrorModel()

    def test_monotone_decreasing(self):
        bers = [self.model.bit_error_probability(p)
                for p in (-95.0, -92.0, -89.0, -86.0)]
        assert all(b2 < b1 for b1, b2 in zip(bers, bers[1:]))

    def test_waterfall_lands_near_cc2420_sensitivity(self):
        # The curve must cross BER = 1e-4 somewhere in the -93..-86 dBm window
        # (same decade as the measured CC2420 curve of Figure 4).
        crossing = None
        for power in np.arange(-95.0, -84.0, 0.25):
            if self.model.bit_error_probability(power) < 1e-4:
                crossing = power
                break
        assert crossing is not None
        assert -93.5 < crossing < -85.5

    def test_chip_error_probability_bounded(self):
        p = self.model.chip_error_probability(-90.0)
        assert 0.0 < p < 0.5

    def test_symbol_error_larger_than_bit_error(self):
        power = -90.0
        assert self.model.symbol_error_probability(power) >= \
            self.model.bit_error_probability(power) * 0.9

    def test_high_power_gives_negligible_errors(self):
        assert self.model.bit_error_probability(-60.0) < 1e-12


class TestPacketErrorProbability:
    """Equation (10)."""

    def test_zero_ber_gives_zero_packet_error(self):
        assert packet_error_probability(0.0, 133) == 0.0

    def test_one_ber_gives_certain_packet_error(self):
        assert packet_error_probability(1.0, 133) == pytest.approx(1.0)

    def test_preamble_excluded(self):
        # A packet equal to the preamble size has no error-prone bits.
        assert packet_error_probability(0.5, 4) == 0.0

    def test_formula(self):
        ber = 1e-4
        expected = 1.0 - (1.0 - ber) ** ((133 - 4) * 8)
        assert packet_error_probability(ber, 133) == pytest.approx(expected)

    def test_monotone_in_packet_size(self):
        ber = 1e-4
        values = [packet_error_probability(ber, n) for n in (20, 60, 100, 133)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            packet_error_probability(-0.1, 100)
        with pytest.raises(ValueError):
            packet_error_probability(1.1, 100)
        with pytest.raises(ValueError):
            packet_error_probability(0.1, 2)

    @settings(max_examples=50, deadline=None)
    @given(ber=st.floats(min_value=0.0, max_value=1.0),
           size=st.integers(min_value=4, max_value=133))
    def test_result_is_probability(self, ber, size):
        value = packet_error_probability(ber, size)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(ber=st.floats(min_value=1e-9, max_value=0.1),
           size=st.integers(min_value=5, max_value=133))
    def test_union_bound(self, ber, size):
        # 1-(1-p)^n <= n*p always.
        n_bits = (size - 4) * 8
        assert packet_error_probability(ber, size) <= n_bits * ber + 1e-12
