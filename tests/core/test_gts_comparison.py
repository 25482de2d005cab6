"""Tests of the GTS-vs-contention comparison."""

import pytest

from repro.core.gts_comparison import (
    MAX_GTS_DESCRIPTORS,
    GtsEnergyModel,
    GtsVersusContention,
)


@pytest.fixture(scope="module")
def model(contention_table):
    from repro.core.energy_model import EnergyModel
    return EnergyModel(contention_source=contention_table)


class TestGtsEnergyModel:
    def test_budget_is_physical(self, model):
        gts = GtsEnergyModel(model)
        budget = gts.evaluate(payload_bytes=120, tx_power_dbm=0.0,
                              path_loss_db=75.0, beacon_order=6)
        assert 0.0 < budget.average_power_w < 1e-3
        assert budget.inter_beacon_period_s == pytest.approx(0.98304)
        assert sum(budget.energy_by_phase_j.values()) == pytest.approx(
            budget.average_power_w * budget.inter_beacon_period_s)

    def test_gts_node_cheaper_than_contention_node(self, model):
        gts = GtsEnergyModel(model).evaluate(120, 0.0, 75.0)
        contention = model.evaluate(payload_bytes=120, tx_power_dbm=0.0,
                                    path_loss_db=75.0, load=0.42)
        assert gts.average_power_w < contention.average_power_w

    def test_no_contention_phase_in_gts_budget(self, model):
        budget = GtsEnergyModel(model).evaluate(120, 0.0, 75.0)
        assert "contention" not in budget.energy_by_phase_j

    def test_gts_reliability_only_limited_by_bit_errors(self, model):
        good = GtsEnergyModel(model).evaluate(120, 0.0, 60.0)
        bad = GtsEnergyModel(model).evaluate(120, 0.0, 93.0)
        assert good.transaction_failure_probability < 1e-6
        assert bad.transaction_failure_probability > 0.1

    def test_power_grows_with_tx_level(self, model):
        gts = GtsEnergyModel(model)
        low = gts.evaluate(120, -25.0, 55.0)
        high = gts.evaluate(120, 0.0, 55.0)
        assert high.average_power_w > low.average_power_w


class TestGtsVersusContention:
    def test_comparison_result(self, model):
        comparison = GtsVersusContention(model, nodes_per_channel=100)
        result = comparison.compare()
        # Per node a GTS would be cheaper (no contention, no CCAs) ...
        assert 0.0 < result.per_node_saving < 0.6
        # ... but it can serve at most seven nodes, far short of 100.
        assert result.gts_capacity_nodes == MAX_GTS_DESCRIPTORS
        assert not result.gts_serves_dense_network

    def test_table_rendering(self, model):
        comparison = GtsVersusContention(model)
        table = comparison.to_table()
        assert "guaranteed time slot" in table
        assert "contention access" in table

    def test_failure_lower_with_gts(self, model):
        result = GtsVersusContention(model).compare(path_loss_db=75.0)
        assert result.gts_failure < result.contention_failure
