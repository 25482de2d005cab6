"""Unit tests of the synthetic wired attenuator bench."""

import numpy as np
import pytest

from repro.channel.wired import WiredTestBench, _count_bit_errors
from repro.phy.error_model import AnalyticOqpskErrorModel


class TestBitErrorCounting:
    def test_identical_strings_have_zero_errors(self):
        assert _count_bit_errors(b"abc", b"abc") == 0

    def test_single_bit_flip(self):
        assert _count_bit_errors(b"\x00", b"\x01") == 1
        assert _count_bit_errors(b"\x00", b"\xFF") == 8

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _count_bit_errors(b"ab", b"a")


class TestWiredTestBench:
    def test_received_power(self):
        bench = WiredTestBench(tx_power_dbm=0.0)
        assert bench.received_power_dbm(88.0) == pytest.approx(-88.0)

    def test_low_attenuation_is_error_free(self):
        bench = WiredTestBench(rng=np.random.default_rng(0))
        result = bench.measure_ber(attenuation_db=60.0, total_bits=8_000)
        assert result.bit_errors == 0
        assert result.bit_error_rate == 0.0

    def test_high_attenuation_produces_errors(self):
        bench = WiredTestBench(rng=np.random.default_rng(0))
        result = bench.measure_ber(attenuation_db=95.0, total_bits=16_000)
        assert result.bit_errors > 0
        assert 0.0 < result.bit_error_rate < 0.5

    def test_ber_increases_with_attenuation(self):
        bench = WiredTestBench(rng=np.random.default_rng(1))
        low = bench.measure_ber(attenuation_db=90.0, total_bits=40_000)
        high = bench.measure_ber(attenuation_db=94.0, total_bits=40_000)
        assert high.bit_error_rate > low.bit_error_rate

    def test_monte_carlo_matches_analytic_order_of_magnitude(self):
        bench = WiredTestBench(rng=np.random.default_rng(2))
        attenuation = 92.0
        measured = bench.measure_ber(attenuation, total_bits=120_000).bit_error_rate
        analytic = AnalyticOqpskErrorModel(noise_figure_db=bench.noise_figure_db) \
            .bit_error_probability(bench.received_power_dbm(attenuation))
        assert measured == pytest.approx(analytic, rel=1.5, abs=2e-4)

    def test_transmit_bytes_roundtrip_structure(self):
        bench = WiredTestBench(rng=np.random.default_rng(4))
        result = bench.transmit_bytes(b"\x55" * 20, attenuation_db=70.0)
        assert result.bits_sent == 160
        assert result.bit_errors == 0

    def test_total_bits_must_be_positive(self):
        with pytest.raises(ValueError):
            WiredTestBench().measure_ber(90.0, total_bits=0)
