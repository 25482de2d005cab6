"""Unit tests of the superframe structure (Figure 2 of the paper)."""

import pytest

from repro.mac.constants import MAC_2450MHZ
from repro.mac.superframe import Superframe, SuperframeConfig


class TestSuperframeConfig:
    def test_case_study_configuration(self):
        config = SuperframeConfig(beacon_order=6, superframe_order=6)
        assert config.beacon_interval_s == pytest.approx(0.98304)
        assert config.superframe_duration_s == pytest.approx(0.98304)
        assert config.duty_cycle == pytest.approx(1.0)

    def test_inactive_portion_when_so_below_bo(self):
        config = SuperframeConfig(beacon_order=6, superframe_order=4)
        assert config.duty_cycle == pytest.approx(0.25)

    def test_so_above_bo_rejected(self):
        with pytest.raises(ValueError):
            SuperframeConfig(beacon_order=3, superframe_order=4)

    def test_invalid_orders_rejected(self):
        with pytest.raises(ValueError):
            SuperframeConfig(beacon_order=15, superframe_order=15)

    def test_beacon_off_duty_cycle_claim(self):
        # The paper: beacon mode allows the transceiver to be off up to
        # 15/16 of the time while still associated.  With SO = BO - 4 the
        # duty cycle is 1/16.
        config = SuperframeConfig(beacon_order=6, superframe_order=2)
        assert config.duty_cycle == pytest.approx(1.0 / 16.0)

    def test_offered_load_case_study(self):
        # 100 nodes x 133 bytes per 983 ms ~= 0.43 of 250 kbit/s.
        config = SuperframeConfig(beacon_order=6, superframe_order=6)
        load = config.offered_load(nodes=100, payload_bytes=133)
        assert load == pytest.approx(0.433, abs=0.01)

    def test_offered_load_validates_inputs(self):
        config = SuperframeConfig()
        with pytest.raises(ValueError):
            config.offered_load(nodes=-1, payload_bytes=10)


class TestSuperframe:
    def make(self):
        config = SuperframeConfig(beacon_order=6, superframe_order=6)
        return Superframe(config, beacon_time_s=0.0, beacon_airtime_s=1e-3)

    def test_boundaries(self):
        frame = self.make()
        assert frame.cap_start_time_s == pytest.approx(1e-3)
        # No contention-free period: the CAP fills the active portion.
        assert frame.in_cap(frame.active_end_time_s - 1e-9)
        assert not frame.in_cap(frame.active_end_time_s)

    def test_time_classification(self):
        frame = self.make()
        assert frame.in_cap(0.5)
        assert not frame.in_cap(0.9835)

    def test_backoff_slot_boundary_alignment(self):
        frame = self.make()
        slot = frame.config.constants.unit_backoff_period_s
        boundary = frame.backoff_slot_boundary_after(frame.cap_start_time_s + 0.5 * slot)
        assert boundary == pytest.approx(frame.cap_start_time_s + slot)
        # Exactly on a boundary stays on it.
        assert frame.backoff_slot_boundary_after(frame.cap_start_time_s + slot) == \
            pytest.approx(frame.cap_start_time_s + slot)
        # Before the CAP snaps to the CAP start.
        assert frame.backoff_slot_boundary_after(0.0) == pytest.approx(
            frame.cap_start_time_s)

    def test_transaction_fits_in_cap(self):
        frame = self.make()
        assert frame.transaction_fits_in_cap(0.1, 5e-3)
        assert not frame.transaction_fits_in_cap(frame.active_end_time_s - 1e-3,
                                                 5e-3)
