"""The registered experiments, run the way ``python -m repro run`` runs them.

``test_experiments.py`` calls the per-figure library drivers with the
session contention table, and ``test_paper_golden.py`` pins the Section 5
and 6 headlines.  This module goes through :func:`run_experiment` and so
through the engine adapters of :mod:`repro.runner.drivers`, which build
their energy model from the engine's own contention table:

* Figures 7, 8 and 9 and the model-vs-simulation cross-check at the
  registry defaults, against the paper's claims and their own report rows.
  The four share one cache, so the contention table is built once.
* Every registered experiment at small parameters: the same seed gives
  byte-identical JSON (what ``repro run --output json --no-cache --seed``
  prints), a new seed reaches every stochastic driver, and the rows carry
  exactly the declared output names.
* The library case-study driver on ``build_contention_table()`` gives the
  registered ``case_study``'s rows.
"""

import json

import numpy as np
import pytest

from repro.runner import default_registry, run_experiment

SEED = 0


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    """One engine cache for the module (one shared contention table)."""
    return tmp_path_factory.mktemp("drivers-cache")


def registered(name, cache_root):
    return run_experiment(name, cache_root=cache_root, seed=SEED, jobs=1)


def curves(result):
    """``{series: (x, y)}`` of a series-row experiment, in row order."""
    by_series = {}
    for row in result.rows:
        xs, ys = by_series.setdefault(row["series"], ([], []))
        xs.append(row["x"])
        ys.append(row["y"])
    return {series: (np.array(xs), np.array(ys))
            for series, (xs, ys) in by_series.items()}


def measured(result, quantity):
    for row in result.report["rows"]:
        if row["quantity"] == quantity:
            return row
    raise AssertionError(f"report row {quantity!r} missing from "
                         f"{result.experiment}")


def by_load(result):
    """Energy-per-bit arrays of the default loads, lightest first."""
    loads = default_registry().get(result.experiment).schema.defaults()["loads"]
    by_series = curves(result)
    return [by_series[f"load = {load:g}"][1] for load in loads]


class TestFig7Registered:
    @pytest.fixture(scope="class")
    def result(self, cache_root):
        return registered("fig7_link", cache_root)

    def test_one_curve_per_load_on_one_path_loss_grid(self, result):
        by_series = curves(result)
        assert sorted(by_series) == ["load = 0.2", "load = 0.42",
                                     "load = 0.6"]
        grids = [x for x, _ in by_series.values()]
        assert np.all(np.diff(grids[0]) > 0)
        for grid in grids[1:]:
            np.testing.assert_array_equal(grid, grids[0])

    def test_optimal_energy_per_bit_never_falls_with_path_loss(self, result):
        for _, y in curves(result).values():
            assert np.all(np.diff(y) >= 0.0)

    def test_a_busier_channel_costs_more_per_bit(self, result):
        light, medium, heavy = by_load(result)
        assert np.all(medium > light)
        assert np.all(heavy > medium)

    def test_switching_thresholds_do_not_move_with_load(self, result):
        """The paper's thresholds are load-independent; Monte-Carlo noise
        may shift one by a grid step or two (as in
        ``test_link_adaptation.py``)."""
        shift = measured(result, "max threshold shift across loads [dB]")
        assert 0.0 <= shift["measured_value"] <= 3.0

    def test_report_is_within_every_declared_tolerance(self, result):
        assert result.report["all_within_tolerance"]


class TestFig8Registered:
    @pytest.fixture(scope="class")
    def result(self, cache_root):
        return registered("fig8_packet", cache_root)

    def test_energy_per_bit_falls_with_payload_on_every_curve(self, result):
        for x, y in curves(result).values():
            assert np.all(np.diff(x) > 0)
            assert np.all(np.diff(y) < 0.0)

    def test_optimum_is_the_largest_payload_evaluated(self, result):
        for x, y in curves(result).values():
            assert x[np.argmin(y)] == x.max() == 123.0

    def test_a_busier_channel_costs_more_per_bit(self, result):
        light, medium, heavy = by_load(result)
        assert np.all(medium > light)
        assert np.all(heavy > medium)

    def test_report_is_within_every_declared_tolerance(self, result):
        assert result.report["all_within_tolerance"]


class TestFig9Registered:
    @pytest.fixture(scope="class")
    def shares(self, cache_root):
        result = registered("fig9_breakdown", cache_root)
        assert result.report["all_within_tolerance"]
        return {row["quantity"]: row["measured_value"] for row in result.rows}

    @staticmethod
    def pie(shares, prefix):
        return {quantity[len(prefix):]: value
                for quantity, value in shares.items()
                if quantity.startswith(prefix)}

    def test_energy_pie_covers_the_four_active_phases_and_sums_to_one(
            self, shares):
        energy = self.pie(shares, "energy share of ")
        assert sorted(energy) == ["ackifs", "beacon", "contention",
                                  "transmit"]
        assert sum(energy.values()) == pytest.approx(1.0, abs=1e-12)

    def test_time_pie_covers_the_four_radio_states_and_sums_to_one(
            self, shares):
        time = self.pie(shares, "time share of ")
        assert sorted(time) == ["idle", "rx", "shutdown", "tx"]
        assert sum(time.values()) == pytest.approx(1.0, abs=1e-12)

    def test_transmit_is_the_largest_energy_share(self, shares):
        energy = self.pie(shares, "energy share of ")
        assert max(energy, key=energy.get) == "transmit"

    def test_the_node_sleeps_over_97_percent_of_the_time(self, shares):
        assert self.pie(shares, "time share of ")["shutdown"] > 0.97


class TestModelVsSimRegistered:
    @pytest.fixture(scope="class")
    def result(self, cache_root):
        return registered("model_vs_sim", cache_root)

    def test_headline_extras_are_the_report_rows(self, result):
        power = measured(result, "average node power [W] (model as reference)")
        failure = measured(
            result, "transaction failure probability (model as reference)")
        assert result.payload["model_power_uw"] == pytest.approx(
            power["paper_value"] * 1e6, rel=1e-12)
        assert result.payload["simulated_power_uw"] == pytest.approx(
            power["measured_value"] * 1e6, rel=1e-12)
        assert (result.payload["simulated_failure_probability"]
                == failure["measured_value"])

    def test_report_is_within_every_declared_tolerance(self, result):
        assert result.report["all_within_tolerance"]


#: Every registered experiment at parameters that run in well under a
#: second with the cache off.
SMALL = {
    "case_study": {"num_windows": 1, "path_loss_resolution": 5},
    "case_study_full": {"total_nodes": 24, "num_channels": 3,
                        "superframes": 2},
    "contention_table": {"num_windows": 1, "num_nodes": 10},
    "fig3_radio": {},
    "fig4_ber": {"bench_bits_per_point": 2000},
    "fig6_csma": {"loads": [0.2, 0.6], "payload_sizes": [20, 100],
                  "num_windows": 2, "num_nodes": 20},
    "fig7_link": {"loads": [0.42], "num_windows": 1},
    "fig8_packet": {"loads": [0.42], "num_windows": 1},
    "fig9_breakdown": {"num_windows": 1, "path_loss_resolution": 5},
    "improvements": {"num_windows": 1, "path_loss_resolution": 5},
    "model_vs_sim": {"num_windows": 1, "num_nodes": 4, "superframes": 2},
}

#: Pure table lookups: no Monte-Carlo draw, so the seed cannot matter.
SEEDLESS = {"fig3_radio"}


def small_json(name, seed):
    return run_experiment(name, params=SMALL[name], seed=seed, jobs=1,
                          cache=False).to_json()


class TestEveryRegisteredExperiment:
    def test_the_small_parameters_cover_the_registry(self):
        assert sorted(SMALL) == sorted(default_registry().names())

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_same_seed_gives_byte_identical_json(self, name):
        first = small_json(name, 7)
        assert json.loads(first)
        assert small_json(name, 7) == first

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_a_new_seed_reaches_every_stochastic_driver(self, name):
        changed = small_json(name, 7) != small_json(name, 8)
        assert changed == (name not in SEEDLESS)

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_row_keys_are_the_declared_output_names(self, name):
        """What ``repro list`` declares is what the rows carry."""
        rows = run_experiment(name, params=SMALL[name], seed=7, jobs=1,
                              cache=False).rows
        keys = {key for row in rows for key in row}
        assert sorted(keys) == sorted(default_registry().get(name).output_names)


class TestOneCaseStudy:
    """The library and the engine characterise the contention grid one
    way, so they print one case study."""

    def test_library_driver_on_the_default_table_gives_the_engine_rows(self):
        from repro.contention import build_contention_table
        from repro.core import EnergyModel
        from repro.experiments import run_case_study
        from repro.runner.drivers import report_rows

        library = run_case_study(
            model=EnergyModel(contention_source=build_contention_table()),
            path_loss_resolution=41)
        engine = run_experiment("case_study", jobs=1, cache=False)
        assert report_rows(library.report) == engine.rows
        adapted = library.with_adaptation
        assert engine.payload["average_power_uw"] == \
            adapted.average_power_w * 1e6
        assert round(adapted.average_power_w * 1e6, 2) == 213.21
        assert round(adapted.mean_failure_probability, 4) == 0.1765
