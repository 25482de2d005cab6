"""Unit tests of the stateful CC2420 model and its energy ledger."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.cc2420 import CC2420Radio, EnergyLedger, RadioEvent
from repro.radio.power_profile import CC2420_PROFILE
from repro.radio.states import RadioState


class TestEnergyLedger:
    def test_empty_ledger(self):
        ledger = EnergyLedger()
        assert ledger.total_energy_j == 0.0
        assert ledger.energy_by_phase() == {}

    def test_negative_charge_rejected(self):
        ledger = EnergyLedger()
        with pytest.raises(ValueError):
            ledger.charge(RadioEvent(0.0, 1.0, RadioState.IDLE, -1.0, "x", "dwell"))

    def test_grouping_by_state_and_phase(self):
        ledger = EnergyLedger()
        ledger.charge(RadioEvent(0.0, 1.0, RadioState.RX, 2.0, "beacon", "dwell"))
        ledger.charge(RadioEvent(1.0, 2.0, RadioState.TX, 3.0, "transmit", "dwell"))
        ledger.charge(RadioEvent(3.0, 0.0, RadioState.RX, 0.5, "beacon", "transition"))
        assert ledger.energy_by_phase()["beacon"] == pytest.approx(2.5)
        assert ledger.time_by_state()[RadioState.TX] == pytest.approx(2.0)
        assert ledger.total_energy_j == pytest.approx(5.5)


class TestCC2420Radio:
    def test_initial_state(self):
        radio = CC2420Radio()
        assert radio.state is RadioState.SHUTDOWN
        assert radio.time_s == 0.0

    def test_startup_charges_transition(self):
        radio = CC2420Radio()
        delay = radio.transition_to(RadioState.IDLE, phase="beacon")
        assert radio.state is RadioState.IDLE
        assert delay == pytest.approx(970e-6)
        assert radio.ledger.energy_by_phase()["beacon"] == pytest.approx(691e-12)

    def test_dwell_charges_state_power(self):
        radio = CC2420Radio(initial_state=RadioState.IDLE)
        energy = radio.dwell(1e-3, phase="test")
        assert energy == pytest.approx(712.8e-6 * 1e-3)
        assert radio.time_s == pytest.approx(1e-3)

    def test_negative_dwell_rejected(self):
        with pytest.raises(ValueError):
            CC2420Radio().dwell(-1.0)

    def test_transition_decomposed_through_idle(self):
        radio = CC2420Radio(initial_state=RadioState.RX)
        radio.transition_to(RadioState.TX)
        assert radio.state is RadioState.TX
        # RX -> IDLE is free, IDLE -> TX charges the 194 us transient.
        assert radio.ledger.total_energy_j == pytest.approx(
            194e-6 * CC2420_PROFILE.tx_power_w(), rel=0.01)

    def test_set_tx_level_rounds_up(self):
        radio = CC2420Radio()
        assert radio.set_tx_level(-12.0) == -10.0
        assert radio.tx_level_dbm == -10.0

    def test_transmit_at_lower_level_costs_less(self):
        def transmit(level_dbm):
            radio = CC2420Radio(initial_state=RadioState.IDLE)
            radio.set_tx_level(level_dbm)
            radio.transition_to(RadioState.TX)
            return radio.dwell(4e-3)
        assert transmit(0.0) == pytest.approx(4e-3 * CC2420_PROFILE.tx_power_w(0.0))
        assert transmit(-25.0) < transmit(0.0)

    @settings(max_examples=30, deadline=None)
    @given(durations=st.lists(st.floats(min_value=0.0, max_value=1.0),
                              min_size=1, max_size=10))
    def test_energy_never_negative_and_time_additive(self, durations):
        radio = CC2420Radio(initial_state=RadioState.IDLE)
        for duration in durations:
            radio.dwell(duration)
        assert radio.ledger.total_energy_j >= 0.0
        assert radio.time_s == pytest.approx(sum(durations))
