"""Tests of the energy / time breakdowns (Figure 9)."""

import pytest

from repro.core.breakdown import PHASE_ORDER, average_breakdowns
from repro.core.energy_model import PHASE_TRANSMIT
from repro.radio.states import RadioState


@pytest.fixture(scope="module")
def breakdowns(contention_table):
    from repro.core.energy_model import EnergyModel
    model = EnergyModel(contention_source=contention_table)
    return average_breakdowns([model.evaluate(
        payload_bytes=120, tx_power_dbm=-5.0, path_loss_db=75.0, load=0.42,
        beacon_order=6)])


class TestEnergyBreakdown:
    def test_fractions_sum_to_one(self, breakdowns):
        breakdown = breakdowns[0]
        assert sum(breakdown.fractions.values()) == pytest.approx(1.0)

    def test_phase_order_matches_figure(self):
        assert PHASE_ORDER == ("beacon", "contention", "transmit", "ackifs")

    def test_transmit_is_largest_phase(self, breakdowns):
        breakdown = breakdowns[0]
        assert breakdown.fraction(PHASE_TRANSMIT) == max(breakdown.fractions.values())

    def test_every_phase_has_nonzero_share(self, breakdowns):
        breakdown = breakdowns[0]
        for phase in PHASE_ORDER:
            assert breakdown.fraction(phase) > 0.02

    def test_unknown_phase_fraction_is_zero(self, breakdowns):
        assert breakdowns[0].fraction("unknown") == 0.0


class TestTimeBreakdown:
    def test_fractions_sum_to_one(self, breakdowns):
        breakdown = breakdowns[1]
        assert sum(breakdown.fractions.values()) == pytest.approx(1.0)

    def test_shutdown_dominates(self, breakdowns):
        # Figure 9b: shutdown 98.77 % in the paper.
        breakdown = breakdowns[1]
        assert breakdown.fraction(RadioState.SHUTDOWN) > 0.97

    def test_active_states_below_one_percent(self, breakdowns):
        breakdown = breakdowns[1]
        for state in (RadioState.IDLE, RadioState.RX, RadioState.TX):
            assert breakdown.fraction(state) < 0.01


class TestAverageBreakdowns:
    def test_average_over_population(self, contention_table):
        from repro.core.energy_model import EnergyModel
        model = EnergyModel(contention_source=contention_table)
        budgets = [model.evaluate(payload_bytes=120, tx_power_dbm=0.0,
                                  path_loss_db=loss, load=0.42)
                   for loss in (60.0, 75.0, 90.0)]
        energy, time = average_breakdowns(budgets)
        assert sum(energy.fractions.values()) == pytest.approx(1.0)
        assert sum(time.fractions.values()) == pytest.approx(1.0)
        # The population average lies between the individual extremes.
        individual = [average_breakdowns([b])[0].fraction(PHASE_TRANSMIT)
                      for b in budgets]
        assert min(individual) <= energy.fraction(PHASE_TRANSMIT) <= max(individual)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            average_breakdowns([])
