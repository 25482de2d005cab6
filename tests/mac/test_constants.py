"""Unit tests of the MAC constants (paper Section 2/4 timing values)."""

import pytest

from repro.mac.constants import MAC_2450MHZ, MacConstants


class TestMacConstants:
    def test_base_superframe_duration_is_15_36_ms(self):
        # T_ib_min of equation (12).
        assert MAC_2450MHZ.base_superframe_duration_s == pytest.approx(15.36e-3)

    def test_base_superframe_is_960_symbols(self):
        assert MAC_2450MHZ.base_superframe_duration_symbols == 960

    def test_unit_backoff_period_is_320_us(self):
        # T_slot = 20 T_S in the paper.
        assert MAC_2450MHZ.unit_backoff_period_s == pytest.approx(320e-6)

    def test_turnaround_time_is_192_us(self):
        # t-ack of the paper.
        assert MAC_2450MHZ.turnaround_time_s == pytest.approx(192e-6)

    def test_ack_wait_duration_is_864_us(self):
        # t+ack of the paper.
        assert MAC_2450MHZ.ack_wait_duration_s == pytest.approx(864e-6)

    def test_backoff_exponent_defaults(self):
        assert MAC_2450MHZ.min_be == 3
        assert MAC_2450MHZ.max_be == 5

    def test_max_transmissions_is_5(self):
        # N_max of the paper: 1 initial + aMaxFrameRetries.
        assert MAC_2450MHZ.max_transmissions == 5

    def test_sixteen_superframe_slots(self):
        assert MAC_2450MHZ.num_superframe_slots == 16


class TestBeaconInterval:
    """Equation (12): T_ib = T_ib_min x 2^BO."""

    def test_bo_zero(self):
        assert MAC_2450MHZ.beacon_interval_s(0) == pytest.approx(15.36e-3)

    def test_bo_six_is_983_ms(self):
        # The case-study inter-beacon period.
        assert MAC_2450MHZ.beacon_interval_s(6) == pytest.approx(0.98304)

    def test_doubles_per_order(self):
        for order in range(0, 14):
            assert MAC_2450MHZ.beacon_interval_s(order + 1) == pytest.approx(
                2 * MAC_2450MHZ.beacon_interval_s(order))

    def test_invalid_orders_rejected(self):
        with pytest.raises(ValueError):
            MAC_2450MHZ.beacon_interval_s(-1)
        with pytest.raises(ValueError):
            MAC_2450MHZ.beacon_interval_s(15)

    def test_superframe_duration_matches_beacon_interval_at_same_order(self):
        assert MAC_2450MHZ.superframe_duration_s(6) == pytest.approx(
            MAC_2450MHZ.beacon_interval_s(6))

    def test_custom_constants(self):
        constants = MacConstants(min_be=2, max_be=4)
        assert constants.min_be == 2
        assert constants.max_transmissions == 5
