"""Tests of the Section 5 case study (211 uW / 1.45 s / 16 %)."""

import math

import pytest

from repro.core.case_study import CaseStudy, CaseStudyParameters
from repro.core.energy_model import PHASE_TRANSMIT
from repro.radio.states import RadioState


class TestCaseStudyParameters:
    def test_paper_defaults(self):
        params = CaseStudyParameters()
        assert params.nodes_per_channel == 100
        assert params.packet_accumulation_period_s == pytest.approx(0.960)
        assert params.path_loss_distribution().low_db == 55.0

    def test_custom_parameters(self):
        params = CaseStudyParameters(total_nodes=800, channels=8)
        assert params.nodes_per_channel == 100


class TestCaseStudyScenario:
    def test_channel_load_near_42_percent(self, energy_model):
        study = CaseStudy(model=energy_model)
        assert study.channel_load() == pytest.approx(0.42, abs=0.03)

    def test_sixteen_channels(self, energy_model):
        study = CaseStudy(model=energy_model)
        assert study.parameters.channels == 16

    def test_superframe_config(self, energy_model):
        config = CaseStudy(model=energy_model).superframe_config()
        assert config.beacon_order == 6


class TestCaseStudyResults:
    def test_average_power_close_to_211_uw(self, case_study_result):
        # +/- 25 % band around the paper's 211 uW.
        assert case_study_result.average_power_w == pytest.approx(211e-6, rel=0.25)

    def test_failure_probability_close_to_16_percent(self, case_study_result):
        assert case_study_result.mean_failure_probability == pytest.approx(
            0.16, abs=0.08)

    def test_delivery_delay_close_to_paper(self, case_study_result):
        # Paper: 1.45 s.  Must exceed one superframe and stay within a
        # factor-of-two band.
        assert 0.98 < case_study_result.mean_delivery_delay_s < 2.9

    def test_breakdowns_match_figure9_shape(self, case_study_result):
        energy = case_study_result.energy_breakdown
        assert energy.fraction(PHASE_TRANSMIT) < 0.55
        assert energy.fraction("contention") > 0.10
        assert energy.fraction("beacon") > 0.10
        assert energy.fraction("ackifs") > 0.05
        time = case_study_result.time_breakdown
        assert time.fraction(RadioState.SHUTDOWN) > 0.975

    def test_thresholds_present_with_adaptation(self, case_study_result):
        assert len(case_study_result.thresholds) >= 5

    def test_per_node_budgets_cover_the_path_loss_grid(self, case_study_result):
        budgets = case_study_result.per_node_budgets
        assert len(budgets) == 21
        losses = [b.path_loss_db for b in budgets]
        assert min(losses) >= 55.0
        assert max(losses) <= 95.0

    def test_link_adaptation_saves_power(self, energy_model):
        study = CaseStudy(model=energy_model, path_loss_resolution=11)
        adapted = study.run(link_adaptation=True)
        fixed = study.run(link_adaptation=False)
        assert adapted.average_power_w < fixed.average_power_w
        assert not fixed.thresholds

    def test_improvements_reduce_power(self, energy_model):
        study = CaseStudy(model=energy_model, path_loss_resolution=11)
        results = {r.name: r for r in study.improvements()}
        assert results["transitions x0.5"].relative_saving > 0.05
        assert results["scalable receiver x0.5"].relative_saving > 0.07
        assert results["combined"].average_power_w < \
            results["baseline"].average_power_w
