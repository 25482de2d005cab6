"""Tests of the channel-inversion link adaptation (Figure 7)."""

import numpy as np
import pytest

from repro.core.link_adaptation import ChannelInversionPolicy


@pytest.fixture(scope="module")
def policy(energy_model):
    policy = ChannelInversionPolicy(energy_model, payload_bytes=120,
                                    load=0.42, beacon_order=6)
    policy.compute_thresholds(np.arange(45.0, 95.5, 1.0))
    return policy


# Re-declare the session fixtures at module scope for the module-scoped policy.
@pytest.fixture(scope="module")
def energy_model(contention_table):
    from repro.core.energy_model import EnergyModel
    return EnergyModel(contention_source=contention_table)


class TestThresholds:
    def test_thresholds_cover_all_levels_in_order(self, policy):
        thresholds = policy._thresholds
        assert len(thresholds) >= 5
        # Each threshold switches to a strictly higher level.
        for threshold in thresholds:
            assert threshold.upper_level_dbm > threshold.lower_level_dbm
        path_losses = [t.path_loss_db for t in thresholds]
        assert path_losses == sorted(path_losses)

    def test_highest_threshold_near_88_db(self, policy):
        # The paper: transmission is efficient up to 88 dB (the last switch
        # to 0 dBm happens around there).
        highest = max(t.path_loss_db for t in policy._thresholds)
        assert 84.0 <= highest <= 92.0

    def test_level_selection_monotone_in_path_loss(self, policy):
        levels = [policy.select_level_dbm(loss)
                  for loss in np.arange(45.0, 95.0, 1.0)]
        assert all(b >= a for a, b in zip(levels, levels[1:]))

    def test_near_node_uses_minimum_power(self, policy):
        assert policy.select_level_dbm(45.0) == -25.0

    def test_far_node_uses_maximum_power(self, policy):
        assert policy.select_level_dbm(94.0) == 0.0


class TestEnergyCurves:
    def test_energy_per_bit_in_paper_range(self, policy):
        curve = policy.compute_curve(np.arange(50.0, 90.0, 2.0))
        low = curve.optimal_energy_per_bit_j[0]
        # Figure 7: 135 nJ/bit .. 220 nJ/bit; accept a generous band because
        # contention statistics are re-simulated.
        assert 80e-9 < low < 400e-9

    def test_energy_grows_towards_cell_edge(self, policy):
        curve = policy.compute_curve(np.arange(50.0, 90.0, 2.0))
        assert curve.optimal_energy_per_bit_j[-1] > curve.optimal_energy_per_bit_j[0]

    def test_optimal_level_always_at_least_as_good_as_fixed(self, policy,
                                                            energy_model):
        for path_loss in (55.0, 70.0, 85.0):
            adapted = policy.evaluate_adapted(path_loss).energy_per_bit_j
            fixed = energy_model.evaluate(
                payload_bytes=120, tx_power_dbm=0.0, path_loss_db=path_loss,
                load=0.42, beacon_order=6).energy_per_bit_j
            assert adapted <= fixed * 1.001

    def test_adaptation_saving_significant_at_low_path_loss(self, policy):
        # The paper quotes "up to 40 %".
        saving = policy.adaptation_saving(path_loss_low_db=55.0)
        assert 0.15 < saving < 0.6

    def test_curve_level_lookup(self, policy):
        curve = policy.compute_curve(np.arange(50.0, 95.0, 2.0))
        assert curve.optimal_level_dbm[0] == -25.0
        assert curve.optimal_level_dbm[-1] == 0.0


class TestLoadIndependence:
    def test_thresholds_insensitive_to_load(self, energy_model):
        grid = np.arange(50.0, 95.0, 1.0)
        light = ChannelInversionPolicy(energy_model, load=0.1)
        heavy = ChannelInversionPolicy(energy_model, load=0.6)
        light_thresholds = light.compute_thresholds(grid)
        heavy_thresholds = heavy.compute_thresholds(grid)
        assert len(light_thresholds) == len(heavy_thresholds)
        for a, b in zip(light_thresholds, heavy_thresholds):
            assert abs(a.path_loss_db - b.path_loss_db) <= 3.0
