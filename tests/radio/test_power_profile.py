"""Unit tests of the CC2420 power profile (Figure 3 numbers)."""

import pytest

from repro.radio.power_profile import (
    CC2420_PROFILE,
    CC2420_VDD_V,
    T_IDLE_TO_ACTIVE_S,
    T_SHUTDOWN_TO_IDLE_POLICY_S,
    TxPowerLevel,
)
from repro.radio.states import IllegalTransitionError, RadioState


class TestSteadyStatePowers:
    def test_shutdown_power_is_144_nw(self):
        assert CC2420_PROFILE.power_w(RadioState.SHUTDOWN) == pytest.approx(144e-9)

    def test_idle_power_is_about_712_uw(self):
        assert CC2420_PROFILE.power_w(RadioState.IDLE) == pytest.approx(712e-6, rel=0.01)

    def test_rx_power_is_35_28_mw(self):
        assert CC2420_PROFILE.power_w(RadioState.RX) == pytest.approx(35.28e-3)

    def test_tx_power_at_0_dbm(self):
        assert CC2420_PROFILE.tx_power_w(0.0) == pytest.approx(17.04e-3 * 1.8)

    def test_tx_power_default_is_maximum(self):
        assert CC2420_PROFILE.power_w(RadioState.TX) == CC2420_PROFILE.tx_power_w(None)

    def test_vdd(self):
        assert CC2420_PROFILE.vdd_v == CC2420_VDD_V == 1.8

    def test_rx_power_exceeds_all_tx_powers(self):
        # Notable CC2420 property the paper exploits: receiving is more
        # expensive than transmitting at any power level.
        for level in CC2420_PROFILE.tx_levels:
            assert CC2420_PROFILE.power_w(RadioState.RX) > level.power_w(1.8)


class TestTxLevels:
    def test_eight_levels(self):
        assert len(CC2420_PROFILE.tx_levels) == 8
        assert CC2420_PROFILE.tx_level_dbms() == [-25, -15, -10, -7, -5, -3, -1, 0]

    def test_levels_sorted_with_increasing_current(self):
        currents = [level.supply_current_a for level in CC2420_PROFILE.tx_levels]
        assert all(b > a for a, b in zip(currents, currents[1:]))

    def test_exact_level_lookup(self):
        assert CC2420_PROFILE.tx_level(-10.0).supply_current_a == pytest.approx(10.9e-3)

    def test_intermediate_level_rounds_up(self):
        assert CC2420_PROFILE.tx_level(-12.0).level_dbm == -10.0
        assert CC2420_PROFILE.tx_level(-0.5).level_dbm == 0.0

    def test_level_above_maximum_raises(self):
        with pytest.raises(ValueError):
            CC2420_PROFILE.tx_level(3.0)

    def test_min_max_levels(self):
        assert CC2420_PROFILE.min_tx_level_dbm == -25.0
        assert CC2420_PROFILE.max_tx_level_dbm == 0.0

    def test_tx_level_power(self):
        level = TxPowerLevel(-25.0, 8.42e-3, 3)
        assert level.power_w(1.8) == pytest.approx(15.156e-3)


class TestTransitions:
    def test_shutdown_to_idle(self):
        transition = CC2420_PROFILE.transition(RadioState.SHUTDOWN, RadioState.IDLE)
        assert transition.duration_s == pytest.approx(970e-6)
        assert transition.energy_j == pytest.approx(691e-12)

    def test_idle_to_rx_worst_case_energy(self):
        transition = CC2420_PROFILE.transition(RadioState.IDLE, RadioState.RX)
        assert transition.duration_s == pytest.approx(194e-6)
        assert transition.energy_j == pytest.approx(194e-6 * 35.28e-3, rel=0.01)
        assert transition.energy_j == pytest.approx(6.63e-6, rel=0.05)

    def test_same_state_transition_is_free(self):
        transition = CC2420_PROFILE.transition(RadioState.RX, RadioState.RX)
        assert transition.duration_s == 0.0
        assert transition.energy_j == 0.0

    def test_unknown_transition_raises(self):
        with pytest.raises(IllegalTransitionError):
            CC2420_PROFILE.transition(RadioState.SHUTDOWN, RadioState.TX)

    def test_policy_constants(self):
        assert T_SHUTDOWN_TO_IDLE_POLICY_S == pytest.approx(1e-3)
        assert T_IDLE_TO_ACTIVE_S == pytest.approx(194e-6)


class TestDerivedProfiles:
    def test_scaled_transitions(self):
        scaled = CC2420_PROFILE.with_scaled_transitions(0.5)
        original = CC2420_PROFILE.transition(RadioState.IDLE, RadioState.RX)
        halved = scaled.transition(RadioState.IDLE, RadioState.RX)
        assert halved.duration_s == pytest.approx(original.duration_s / 2)
        assert halved.energy_j == pytest.approx(original.energy_j / 2)
        # Steady-state powers unchanged.
        assert scaled.power_w(RadioState.RX) == CC2420_PROFILE.power_w(RadioState.RX)

    def test_scaled_transitions_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            CC2420_PROFILE.with_scaled_transitions(-1.0)

    def test_derived_profiles_do_not_mutate_original(self):
        CC2420_PROFILE.with_scaled_transitions(0.1)
        assert CC2420_PROFILE.power_w(RadioState.RX) == pytest.approx(35.28e-3)
        assert CC2420_PROFILE.transition(RadioState.IDLE, RadioState.RX) \
            .duration_s == pytest.approx(194e-6)
