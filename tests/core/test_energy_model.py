"""Tests of the analytical energy model (equations 3-6, 11-12, 14).

These tests pin the model to the paper's quantitative claims wherever the
paper states a number, and otherwise check the physical consistency of the
budget (times sum to the superframe, energies match time x power, monotone
behaviour in the obvious directions).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.activation_policy import ActivationPolicy
from repro.core.energy_model import (
    EnergyModel,
    ModelConfig,
    PHASE_ACK,
    PHASE_BEACON,
    PHASE_CONTENTION,
    PHASE_SLEEP,
    PHASE_TRANSMIT,
)
from repro.radio.states import RadioState


CASE_STUDY = dict(payload_bytes=120, tx_power_dbm=0.0, path_loss_db=75.0,
                  load=0.42, beacon_order=6)


class TestPacketArithmetic:
    def test_packet_bytes_on_air(self, energy_model):
        # Equation (3): L_o = 13.
        assert energy_model.packet_bytes_on_air(120) == 133
        assert energy_model.packet_bytes_on_air(0) == 13

    def test_packet_airtime(self, energy_model):
        assert energy_model.packet_airtime_s(120) == pytest.approx(4.256e-3)

    def test_negative_payload_rejected(self, energy_model):
        with pytest.raises(ValueError):
            energy_model.packet_bytes_on_air(-1)

    def test_packet_error_improves_with_power(self, energy_model):
        high = energy_model.packet_error(120, 0.0, 90.0)
        low = energy_model.packet_error(120, -15.0, 90.0)
        assert high < low

    def test_packet_error_below_sensitivity(self):
        model = EnergyModel(config=ModelConfig(sensitivity_dbm=-94.0),
                            contention_source=lambda load, size: None)
        assert model.packet_error(120, -25.0, 90.0) == 1.0


class TestBudgetConsistency:
    @pytest.fixture(scope="class")
    def budget(self, energy_model):
        return energy_model.evaluate(**CASE_STUDY)

    def test_times_sum_to_inter_beacon_period(self, budget):
        total = (budget.time_idle_s + budget.time_tx_s + budget.time_rx_s
                 + budget.time_shutdown_s)
        assert total == pytest.approx(budget.inter_beacon_period_s, rel=1e-9)

    def test_inter_beacon_period_equation_12(self, budget):
        assert budget.inter_beacon_period_s == pytest.approx(0.98304)

    def test_phase_times_sum_to_state_times(self, budget):
        assert sum(budget.time_by_phase_s.values()) == pytest.approx(
            budget.inter_beacon_period_s, rel=1e-9)

    def test_phase_energies_sum_to_total(self, budget):
        assert sum(budget.energy_by_phase_j.values()) == pytest.approx(
            budget.total_energy_j, rel=1e-12)

    def test_average_power_is_energy_over_period(self, budget):
        assert budget.average_power_w == pytest.approx(
            budget.total_energy_j / budget.inter_beacon_period_s)

    def test_average_power_in_paper_ballpark(self, budget):
        # Single mid-range node at 0 dBm: a couple hundred microwatts.
        assert 120e-6 < budget.average_power_w < 350e-6

    def test_node_sleeps_more_than_97_percent(self, budget):
        assert budget.time_shutdown_s / budget.inter_beacon_period_s > 0.97

    def test_all_phases_present(self, budget):
        for phase in (PHASE_BEACON, PHASE_CONTENTION, PHASE_TRANSMIT,
                      PHASE_ACK, PHASE_SLEEP):
            assert phase in budget.energy_by_phase_j
            assert budget.energy_by_phase_j[phase] >= 0.0

    def test_time_by_state_mapping(self, budget):
        by_state = budget.time_by_state()
        assert by_state[RadioState.SHUTDOWN] == budget.time_shutdown_s
        assert by_state[RadioState.TX] == budget.time_tx_s

    def test_tx_level_echoed_and_rounded(self, energy_model):
        budget = energy_model.evaluate(payload_bytes=120, tx_power_dbm=-12.0,
                                       path_loss_db=70.0, load=0.42)
        assert budget.tx_power_dbm == -10.0

    def test_delay_and_energy_per_bit_consistent(self, budget):
        expected = (budget.average_power_w * budget.delivery_delay_s
                    / (120 * 8))
        assert budget.energy_per_bit_j == pytest.approx(expected)


class TestModelTrends:
    def test_power_increases_with_tx_level_on_a_good_link(self, energy_model):
        # At 55 dB path loss every level is reliable, so the electrical TX
        # power difference dominates.  (At large path losses a too-low level
        # costs *more* overall because of retransmissions — that trade-off is
        # exactly what link adaptation exploits, tested in
        # test_link_adaptation.py.)
        operating_point = {**CASE_STUDY, "path_loss_db": 55.0}
        low = energy_model.evaluate(**{**operating_point, "tx_power_dbm": -25.0})
        high = energy_model.evaluate(**{**operating_point, "tx_power_dbm": 0.0})
        assert high.average_power_w > low.average_power_w

    def test_failure_increases_with_path_loss(self, energy_model):
        near = energy_model.evaluate(**{**CASE_STUDY, "path_loss_db": 60.0})
        far = energy_model.evaluate(**{**CASE_STUDY, "path_loss_db": 93.0})
        assert far.transaction_failure_probability > \
            near.transaction_failure_probability
        assert far.delivery_delay_s > near.delivery_delay_s

    def test_retransmissions_increase_with_path_loss(self, energy_model):
        near = energy_model.evaluate(**{**CASE_STUDY, "path_loss_db": 60.0})
        far = energy_model.evaluate(**{**CASE_STUDY, "path_loss_db": 94.0})
        assert far.attempt_distribution.expected_transmissions > \
            near.attempt_distribution.expected_transmissions

    def test_average_power_decreases_with_beacon_order(self, energy_model):
        # Longer superframes amortise the per-superframe overhead (at the
        # cost of latency); the per-superframe active energy is roughly
        # constant so P ~ 1/T_ib.
        bo5 = energy_model.evaluate(**{**CASE_STUDY, "beacon_order": 5})
        bo7 = energy_model.evaluate(**{**CASE_STUDY, "beacon_order": 7})
        assert bo7.average_power_w < bo5.average_power_w

    def test_failure_increases_with_load(self, energy_model):
        light = energy_model.evaluate(**{**CASE_STUDY, "load": 0.1})
        heavy = energy_model.evaluate(**{**CASE_STUDY, "load": 0.9})
        assert heavy.transaction_failure_probability > \
            light.transaction_failure_probability

    def test_energy_per_bit_decreases_with_payload(self, energy_model):
        small = energy_model.evaluate(**{**CASE_STUDY, "payload_bytes": 10})
        large = energy_model.evaluate(**{**CASE_STUDY, "payload_bytes": 120})
        assert large.energy_per_bit_j < small.energy_per_bit_j

    @settings(max_examples=15, deadline=None)
    @given(payload=st.integers(min_value=1, max_value=123),
           path_loss=st.floats(min_value=40.0, max_value=95.0),
           level=st.sampled_from([-25.0, -15.0, -10.0, -5.0, 0.0]))
    def test_budget_always_physical(self, energy_model, payload, path_loss, level):
        budget = energy_model.evaluate(payload_bytes=payload, tx_power_dbm=level,
                                       path_loss_db=path_loss, load=0.42)
        assert budget.total_energy_j > 0.0
        assert 0.0 <= budget.transaction_failure_probability <= 1.0
        assert budget.time_shutdown_s >= 0.0
        assert budget.average_power_w < 5e-3    # far below always-on RX power


class TestPolicyVariants:
    def test_always_idle_policy_is_much_worse(self, contention_table):
        paper = EnergyModel(contention_source=contention_table)
        always_idle = EnergyModel(
            config=ModelConfig(policy=ActivationPolicy.always_idle()),
            contention_source=contention_table)
        paper_power = paper.evaluate(**CASE_STUDY).average_power_w
        idle_power = always_idle.evaluate(**CASE_STUDY).average_power_w
        # Idling at 712 uW instead of sleeping dominates everything.
        assert idle_power > 3 * paper_power
        assert idle_power > 700e-6

    def test_rx_until_beacon_policy_costs_more(self, contention_table):
        paper = EnergyModel(contention_source=contention_table)
        rx_wait = EnergyModel(
            config=ModelConfig(policy=ActivationPolicy.rx_until_beacon()),
            contention_source=contention_table)
        assert rx_wait.evaluate(**CASE_STUDY).average_power_w > \
            paper.evaluate(**CASE_STUDY).average_power_w

    def test_scalable_receiver_scales_saving(self, contention_table):
        baseline = EnergyModel(contention_source=contention_table)
        scaled = baseline.with_config(cca_rx_power_scale=0.5,
                                      ack_rx_power_scale=0.5)
        assert scaled.evaluate(**CASE_STUDY).average_power_w < \
            baseline.evaluate(**CASE_STUDY).average_power_w

    def test_scaled_transition_profile_saves_power(self, contention_table):
        baseline = EnergyModel(contention_source=contention_table)
        faster = baseline.with_profile(
            baseline.config.profile.with_scaled_transitions(0.5))
        assert faster.evaluate(**CASE_STUDY).average_power_w < \
            baseline.evaluate(**CASE_STUDY).average_power_w

    def test_paper_strict_accounting_option(self, contention_table):
        strict = EnergyModel(
            config=ModelConfig(include_cca_sense_time=False,
                               include_tx_turnon=False),
            contention_source=contention_table)
        default = EnergyModel(contention_source=contention_table)
        assert strict.evaluate(**CASE_STUDY).average_power_w < \
            default.evaluate(**CASE_STUDY).average_power_w


class TestModelConfigValidation:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(max_transmissions=0)
        with pytest.raises(ValueError):
            ModelConfig(cca_rx_power_scale=-1.0)

    def test_beacon_airtime(self):
        config = ModelConfig()
        assert config.beacon_airtime_s > 0.5e-3
