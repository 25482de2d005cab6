"""End-to-end integration tests across packages.

These tests exercise the public API the way the examples and a downstream
user would, crossing package boundaries: scenario -> contention -> model ->
case study -> breakdowns, and analytical model vs packet-level simulation.
"""

import math

import pytest

import repro
from repro.contention.analytical import ClosedFormContentionModel
from repro.core import CaseStudy, ChannelInversionPolicy, EnergyModel
from repro.core.energy_model import ModelConfig
from repro.experiments.validation import run_model_vs_simulation
from repro.network.scenario import DenseNetworkScenario


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__ == "1.0.0"
        assert hasattr(repro, "EnergyModel")
        assert hasattr(repro, "CaseStudy")
        assert hasattr(repro, "CC2420_PROFILE")

    def test_quickstart_flow(self, contention_table):
        model = EnergyModel(contention_source=contention_table)
        budget = model.evaluate(payload_bytes=120, tx_power_dbm=-10.0,
                                path_loss_db=72.0, load=0.42, beacon_order=6)
        assert 100e-6 < budget.average_power_w < 400e-6
        assert 0.0 < budget.transaction_failure_probability < 0.5


class TestHeadlineReproduction:
    """The paper's headline claims, end to end."""

    def test_average_power_band(self, case_study_result):
        assert 160e-6 < case_study_result.average_power_w < 265e-6

    def test_failure_probability_band(self, case_study_result):
        assert 0.08 < case_study_result.mean_failure_probability < 0.26

    def test_delay_exceeds_superframe(self, case_study_result):
        assert case_study_result.mean_delivery_delay_s > \
            case_study_result.inter_beacon_period_s

    def test_energy_breakdown_orders(self, case_study_result):
        fractions = case_study_result.energy_breakdown.fractions
        # Transmit is the largest single share; the three overhead phases
        # together account for roughly half of the energy.
        assert fractions["transmit"] == max(fractions.values())
        overhead = fractions["beacon"] + fractions["contention"] + fractions["ackifs"]
        assert 0.35 < overhead < 0.65


class TestScenarioToModelConsistency:
    def test_scenario_load_feeds_model(self, contention_table):
        scenario = DenseNetworkScenario(total_nodes=160, channels=[11], seed=5)
        model = EnergyModel(contention_source=contention_table)
        load = scenario.channel_load()
        budget = model.evaluate(payload_bytes=120, tx_power_dbm=0.0,
                                path_loss_db=75.0, load=load, beacon_order=6)
        assert budget.average_power_w > 0.0

    def test_link_adaptation_applied_to_scenario_nodes(self, contention_table):
        model = EnergyModel(contention_source=contention_table)
        policy = ChannelInversionPolicy(model, payload_bytes=120, load=0.42)
        policy.compute_thresholds()
        scenario = DenseNetworkScenario(total_nodes=64, channels=[11, 12], seed=6)
        levels = {policy.select_level_dbm(node.path_loss_db)
                  for node in scenario.build_nodes()}
        assert len(levels) >= 3          # several distinct levels in use
        for level in levels:
            assert -25.0 <= level <= 0.0
            # Nodes further out never use less power than closer nodes
            # (monotonicity is already unit-tested; here we spot-check range).

    def test_closed_form_contention_source_works_end_to_end(
            self, case_study_result):
        """The headline power is robust to the contention-statistics
        source: the closed form lands within 30 % of the Monte-Carlo."""
        model = EnergyModel(contention_source=ClosedFormContentionModel())
        study = CaseStudy(model=model, path_loss_resolution=11)
        result = study.run()
        assert 120e-6 < result.average_power_w < 350e-6
        ratio = result.average_power_w / case_study_result.average_power_w
        assert 0.7 < ratio < 1.3


class TestModelVsSimulation:
    def test_cross_validation_holds(self, contention_table):
        model = EnergyModel(contention_source=contention_table)
        result = run_model_vs_simulation(model=model, num_nodes=10,
                                         beacon_order=3, superframes=6, seed=2)
        simulated = result.simulation.mean_node_power_w
        analytical = result.model_power_w
        assert simulated == pytest.approx(analytical, rel=0.35)
