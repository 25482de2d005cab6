"""Integration tests of the per-figure experiment drivers.

Each driver must run end to end, produce the expected artefacts (series /
reports) and land within its declared tolerance bands.  The tests
use scaled-down Monte-Carlo settings so the whole module stays fast;
``tests/experiments/test_paper_golden.py`` pins the full-size headlines.
"""

import numpy as np
import pytest

from repro.core.energy_model import EnergyModel
from repro.experiments.fig3_radio import run_fig3_radio_characterization
from repro.experiments.fig4_ber import run_fig4_ber
from repro.experiments.fig7_link import run_fig7_link_adaptation
from repro.experiments.fig8_packet import run_fig8_packet_size
from repro.experiments.fig9_breakdown import run_fig9_breakdown
from repro.experiments.case_study import run_case_study
from repro.experiments.improvements import run_improvements
from repro.experiments.validation import run_model_vs_simulation
from repro.runner import run_experiment


@pytest.fixture(scope="module")
def model(contention_table):
    return EnergyModel(contention_source=contention_table)


class TestFig3:
    def test_report_within_tolerance(self):
        result = run_fig3_radio_characterization()
        assert result.report.all_within_tolerance


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4_ber(bench_bits_per_point=20_000, seed=1)

    def test_report_within_tolerance(self, result):
        assert result.report.all_within_tolerance

    def test_regression_exponent_recovered(self, result):
        assert result.fitted_exponent == pytest.approx(0.659, rel=0.1)

    def test_curves_decrease_with_power(self, result):
        paper = result.curves.get("paper regression (eq. 1)")
        assert paper.y[0] > paper.y[-1]
        bench = result.curves.get("synthetic wired bench")
        assert bench.y[0] > bench.y[-1]


class TestFig6:
    """The registered ``fig6_csma`` experiment at test scale, at seed 3
    and at the case-study seed 2005."""

    PARAMS = {"num_windows": 5, "num_nodes": 60}

    @pytest.fixture(scope="class", params=[3, 2005])
    def seed(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def run(self, seed):
        return run_experiment(
            "fig6_csma", params=dict(self.PARAMS, loads=[0.1, 0.42, 0.8]),
            seed=seed, jobs=1, cache=False)

    @pytest.fixture(scope="class")
    def series(self, run):
        """Rows per payload, in load order."""
        by_payload = {}
        for row in run.rows:
            by_payload.setdefault(row["payload_bytes"], []).append(row)
        return by_payload

    def test_one_series_per_payload(self, series):
        assert sorted(series) == [10, 20, 50, 100]
        for rows in series.values():
            assert [row["load"] for row in rows] == [0.1, 0.42, 0.8]

    def test_failure_probability_grows_with_load(self, series):
        for rows in series.values():
            assert rows[-1]["pr_cf"] >= rows[0]["pr_cf"]

    def test_cca_count_at_max_load_within_the_csma_bounds(self, series):
        """Between 2 (both CCAs clear at once) and 6 (the paper's CSMA
        convention at its cap)."""
        for rows in series.values():
            assert 2.0 <= rows[-1]["n_cca"] <= 6.0

    def test_contention_time_grows_with_load(self, series):
        for rows in series.values():
            times = [row["t_cont_s"] for row in rows]
            assert times == sorted(times) and times[0] < times[-1]

    def test_smaller_packets_collide_more(self, series):
        at_042 = {payload: rows[1] for payload, rows in series.items()}
        assert at_042[10]["pr_col"] > at_042[100]["pr_col"]

    def test_report_holds_the_growth_and_cca_rows_of_every_payload(
            self, run, series):
        report = {row["quantity"]: row["measured_value"]
                  for row in run.report["rows"]}
        assert len(report) == 2 * len(series)
        for payload, rows in series.items():
            growth = report[f"Pr_cf growth with load ({payload} B), "
                            f"high/low ratio"]
            assert growth > 1.0
            assert growth == pytest.approx(
                rows[-1]["pr_cf"] / max(rows[0]["pr_cf"], 1e-9))
            assert report[f"N_CCA at max load ({payload} B)"] == \
                rows[-1]["n_cca"]

    def test_case_study_point_matches_the_paper_failure(self, seed):
        """The paper's 16 % transaction failure is dominated by Pr_cf at
        the case-study point (load 0.42, 133 bytes on air)."""
        rows = run_experiment("contention_table", params=self.PARAMS,
                              seed=seed, jobs=1, cache=False).rows
        point = next(row for row in rows
                     if row["load"] == 0.42 and row["packet_bytes"] == 133)
        assert point["pr_cf"] == pytest.approx(0.16, rel=0.5)


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self, model):
        return run_fig7_link_adaptation(
            model=model, loads=(0.3, 0.42),
            path_loss_grid_db=np.arange(50.0, 95.0, 2.5))

    def test_report_within_tolerance(self, result):
        assert result.report.all_within_tolerance

    def test_energy_grows_with_path_loss(self, result):
        for series in result.curves.series:
            assert series.y[-1] > series.y[0]

    def test_thresholds_monotone(self, result):
        for thresholds in result.thresholds_by_load.values():
            levels = [t.upper_level_dbm for t in thresholds]
            assert levels == sorted(levels)


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self, model):
        return run_fig8_packet_size(model=model, loads=(0.3, 0.42),
                                    payload_sizes=[10, 40, 80, 120])

    def test_report_within_tolerance(self, result):
        assert result.report.all_within_tolerance

    def test_energy_per_bit_decreases_with_size(self, result):
        for series in result.curves.series:
            assert series.y[-1] < series.y[0]


class TestFig9:
    def test_report_within_tolerance(self, model):
        result = run_fig9_breakdown(model=model, path_loss_resolution=15)
        assert result.report.all_within_tolerance


class TestCaseStudyExperiment:
    @pytest.fixture(scope="class")
    def result(self, model):
        return run_case_study(model=model, path_loss_resolution=15)

    def test_report_within_tolerance(self, result):
        assert result.report.all_within_tolerance

    def test_adaptation_beats_fixed_power(self, result):
        assert result.with_adaptation.average_power_w < \
            result.without_adaptation.average_power_w


class TestImprovementsExperiment:
    def test_report_within_tolerance(self, model):
        result = run_improvements(model=model, path_loss_resolution=11)
        assert result.report.all_within_tolerance
        assert len(result.results) == 4


class TestValidationExperiment:
    @pytest.mark.parametrize("num_nodes, beacon_order, superframes, seed",
                             [(8, 3, 5, 11), (8, 3, 8, 11), (12, 3, 8, 7),
                              (20, 4, 6, 3)])
    def test_model_matches_simulation(self, model, num_nodes, beacon_order,
                                      superframes, seed):
        result = run_model_vs_simulation(model=model, num_nodes=num_nodes,
                                         beacon_order=beacon_order,
                                         superframes=superframes, seed=seed)
        assert result.report.all_within_tolerance
        assert result.simulation.packets_attempted > 0
