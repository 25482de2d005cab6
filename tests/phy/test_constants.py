"""Unit tests of the PHY timing constants (paper Section 2 values)."""

import pytest

from repro.phy.constants import (
    CCA_DURATION_S,
    MAX_PHY_PACKET_SIZE_BYTES,
    T_ACK_MAX_S,
    T_ACK_MIN_S,
    TIMING_2450MHZ,
    TIMING_868MHZ,
    TIMING_915MHZ,
)


class TestTiming2450MHz:
    """The 2450 MHz O-QPSK PHY numbers quoted in the paper."""

    def test_chip_rate(self):
        assert TIMING_2450MHZ.chip_rate_hz == 2_000_000.0

    def test_symbol_period_is_16_us(self):
        assert TIMING_2450MHZ.symbol_period_s == pytest.approx(16e-6)

    def test_bit_rate_is_250_kbps(self):
        assert TIMING_2450MHZ.bit_rate_bps == pytest.approx(250_000.0)

    def test_byte_period_is_32_us(self):
        assert TIMING_2450MHZ.byte_period_s == pytest.approx(32e-6)

    def test_packet_of_123_bytes_takes_about_4_ms(self):
        # The paper: "With the maximum packet size of 123 bytes ... the
        # packet transmission takes 4 ms".
        airtime = 123 * TIMING_2450MHZ.byte_period_s
        assert airtime == pytest.approx(3.936e-3, rel=0.01)


class TestOtherBands:
    def test_915mhz_rate_is_40_kbps(self):
        assert TIMING_915MHZ.bit_rate_bps == pytest.approx(40_000.0)

    def test_868mhz_rate_is_20_kbps(self):
        assert TIMING_868MHZ.bit_rate_bps == pytest.approx(20_000.0)

    def test_2450mhz_is_fastest(self):
        assert TIMING_2450MHZ.bit_rate_bps > TIMING_915MHZ.bit_rate_bps \
            > TIMING_868MHZ.bit_rate_bps


class TestDerivedConstants:
    def test_t_ack_min_is_192_us(self):
        assert T_ACK_MIN_S == pytest.approx(192e-6)

    def test_t_ack_max_is_864_us(self):
        assert T_ACK_MAX_S == pytest.approx(864e-6)

    def test_cca_duration_is_8_symbols(self):
        assert CCA_DURATION_S == pytest.approx(128e-6)

    def test_max_phy_packet_size(self):
        assert MAX_PHY_PACKET_SIZE_BYTES == 127
