"""Tests of the improvement-perspective analysis (Section 5/6)."""

import pytest

from repro.core.improvements import ImprovementAnalysis, ImprovementResult


@pytest.fixture(scope="module")
def model(contention_table):
    from repro.core.energy_model import EnergyModel
    return EnergyModel(contention_source=contention_table)


@pytest.fixture(scope="module")
def analysis(model):
    def evaluator(candidate):
        return candidate.evaluate(payload_bytes=120, tx_power_dbm=-5.0,
                                  path_loss_db=75.0, load=0.42,
                                  beacon_order=6).average_power_w
    return ImprovementAnalysis(model, evaluator)


class TestImprovementResult:
    def test_relative_saving(self):
        result = ImprovementResult("x", average_power_w=80e-6,
                                   baseline_power_w=100e-6)
        assert result.relative_saving == pytest.approx(0.2)

    def test_zero_baseline_rejected(self):
        result = ImprovementResult("x", 1.0, 0.0)
        with pytest.raises(ValueError):
            _ = result.relative_saving


class TestImprovementAnalysis:
    def test_run_produces_four_variants(self, analysis):
        results = analysis.run()
        assert [r.name for r in results] == [
            "baseline", "transitions x0.5", "scalable receiver x0.5", "combined"]

    def test_baseline_has_zero_saving(self, analysis):
        results = {r.name: r for r in analysis.run()}
        assert results["baseline"].relative_saving == pytest.approx(0.0)

    def test_transition_saving_in_paper_ballpark(self, analysis):
        # Paper: halving transition times saves ~12 %.
        results = {r.name: r for r in analysis.run()}
        assert 0.05 < results["transitions x0.5"].relative_saving < 0.20

    def test_scalable_receiver_saving_in_paper_ballpark(self, analysis):
        # Paper: scalable receiver saves ~15 %.
        results = {r.name: r for r in analysis.run()}
        assert 0.07 < results["scalable receiver x0.5"].relative_saving < 0.25

    def test_combined_saves_more_than_each_individually(self, analysis):
        results = {r.name: r for r in analysis.run()}
        assert results["combined"].relative_saving > \
            results["transitions x0.5"].relative_saving
        assert results["combined"].relative_saving > \
            results["scalable receiver x0.5"].relative_saving

    def test_combined_saving_not_fully_additive(self, analysis):
        # The two improvements overlap (the CCA turn-on transient is both a
        # transition and receive energy), so the combined saving is below the
        # sum of the individual savings.
        results = {r.name: r for r in analysis.run()}
        total = (results["transitions x0.5"].relative_saving
                 + results["scalable receiver x0.5"].relative_saving)
        assert results["combined"].relative_saving <= total + 1e-9

    def test_variant_names(self, analysis):
        assert {r.name for r in analysis.run()} == {"baseline", "transitions x0.5",
                                "scalable receiver x0.5", "combined"}

    def test_stronger_scaling_saves_more(self, analysis):
        def combined(factor):
            results = {r.name: r for r in analysis.run(factor, factor)}
            return results["combined"].relative_saving
        assert combined(0.25) > combined(0.75)
