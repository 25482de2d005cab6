"""Unit tests of the shared network-geometry arithmetic.

The float-ordering details consolidated in :mod:`repro.network.geometry`
(the 0.1 m propagation clamp, the 1e-9 dB level-selection guard, the
bisection threshold) used to live inline in topology and spec; these tests
pin the shared helper so both call sites keep ordering floats identically.
"""

import math

import numpy as np
import pytest

from repro.channel.pathloss import FreeSpacePathLoss, LogDistancePathLoss
from repro.network.geometry import (
    LEVEL_MARGIN_DB,
    MIN_PROPAGATION_DISTANCE_M,
    deterministic_path_loss_db,
    lowest_sufficient_levels,
    pairwise_path_losses_db,
    propagation_distance_m,
    rx_power_threshold_dbm,
)
from repro.network.topology import (NodePlacement, clustered_placement,
                                    grid_placement, uniform_disc_placement)
from repro.phy.error_model import EmpiricalBerModel, packet_error_probability


class TestPropagationDistance:
    def test_plain_euclidean_distance(self):
        assert propagation_distance_m(3.0, 4.0) == pytest.approx(5.0)
        assert propagation_distance_m(1.0, 1.0, 4.0, 5.0) == pytest.approx(5.0)

    def test_clamps_degenerate_distances(self):
        assert propagation_distance_m(0.0, 0.0) == MIN_PROPAGATION_DISTANCE_M
        assert propagation_distance_m(0.01, 0.0) == MIN_PROPAGATION_DISTANCE_M
        assert propagation_distance_m(2.0, 2.0, 2.0, 2.0) == \
            MIN_PROPAGATION_DISTANCE_M

    def test_clamp_only_guards_the_singularity(self):
        just_outside = MIN_PROPAGATION_DISTANCE_M * 1.01
        assert propagation_distance_m(just_outside, 0.0) == \
            pytest.approx(just_outside)


class TestDeterministicPathLoss:
    def test_none_model_is_log_distance_exponent_3(self):
        explicit = LogDistancePathLoss(exponent=3.0)
        for distance in (1.0, 12.0, 60.0):
            assert deterministic_path_loss_db(None, distance) == \
                deterministic_path_loss_db(explicit, distance)

    def test_respects_the_model(self):
        free_space = FreeSpacePathLoss()
        assert deterministic_path_loss_db(free_space, 10.0) == \
            pytest.approx(float(free_space.attenuation_db(10.0)))

    def test_clamps_before_evaluating(self):
        assert deterministic_path_loss_db(None, 0.0) == \
            deterministic_path_loss_db(None, MIN_PROPAGATION_DISTANCE_M)

    def test_monotone_in_distance(self):
        losses = [deterministic_path_loss_db(None, d)
                  for d in (1.0, 5.0, 20.0, 60.0)]
        assert losses == sorted(losses)


class TestPairwisePathLosses:
    def placements(self):
        return [NodePlacement(node_id=i + 1, x_m=x, y_m=y)
                for i, (x, y) in enumerate([(0.0, 12.0), (12.0, 0.0),
                                            (12.0, 12.0)])]

    def test_symmetric_with_zero_diagonal(self):
        losses = pairwise_path_losses_db(self.placements())
        assert losses.shape == (3, 3)
        assert np.allclose(losses, losses.T)
        assert np.all(np.diag(losses) == 0.0)

    def test_entries_match_the_scalar_helper(self):
        placements = self.placements()
        losses = pairwise_path_losses_db(placements)
        distance = propagation_distance_m(
            placements[0].x_m, placements[0].y_m,
            placements[1].x_m, placements[1].y_m)
        assert losses[0, 1] == deterministic_path_loss_db(None, distance)

    def test_equal_length_links_carry_equal_loss(self):
        """A relay link and a sink link of the same length must agree —
        that is the invariant the consolidation exists to enforce."""
        placements = self.placements()
        losses = pairwise_path_losses_db(placements)
        sink_loss = deterministic_path_loss_db(
            None, propagation_distance_m(0.0, 12.0))
        assert losses[1, 2] == sink_loss  # (12,0)-(12,12) is a 12 m link


def reference_pairwise_losses(placements, model=None):
    """The per-pair scalar double loop the vectorised matrix must equal."""
    count = len(placements)
    losses = np.zeros((count, count))
    for i in range(count):
        for j in range(i + 1, count):
            distance = propagation_distance_m(
                placements[i].x_m, placements[i].y_m,
                placements[j].x_m, placements[j].y_m)
            losses[i, j] = losses[j, i] = \
                deterministic_path_loss_db(model, distance)
    return losses


class TestPairwiseMatchesTheScalarLoop:
    """Losses are evaluated once per distinct displacement and scattered;
    every entry must equal the scalar per-pair evaluation bit for bit."""

    @pytest.mark.parametrize("count", [100, 400])
    def test_grid(self, count):
        placements = grid_placement(count, 12.0)
        assert np.array_equal(pairwise_path_losses_db(placements),
                              reference_pairwise_losses(placements))

    def test_disc(self):
        placements = uniform_disc_placement(
            100, 60.0, np.random.default_rng(3))
        model = LogDistancePathLoss(exponent=2.7)
        assert np.array_equal(pairwise_path_losses_db(placements, model),
                              reference_pairwise_losses(placements, model))

    def test_cluster(self):
        placements = clustered_placement(
            100, 4, 60.0, 8.0, np.random.default_rng(4))
        model = FreeSpacePathLoss()
        assert np.array_equal(pairwise_path_losses_db(placements, model),
                              reference_pairwise_losses(placements, model))

    def test_coincident_points_take_the_clamp(self):
        placements = [NodePlacement(node_id=1, x_m=3.5, y_m=-2.0),
                      NodePlacement(node_id=2, x_m=3.5, y_m=-2.0),
                      NodePlacement(node_id=3, x_m=-3.5, y_m=2.0)]
        losses = pairwise_path_losses_db(placements)
        assert np.array_equal(losses, reference_pairwise_losses(placements))
        assert losses[0, 1] == deterministic_path_loss_db(
            None, MIN_PROPAGATION_DISTANCE_M)

    def test_fewer_than_two_placements(self):
        assert pairwise_path_losses_db([]).shape == (0, 0)
        single = [NodePlacement(node_id=1, x_m=1.0, y_m=1.0)]
        assert np.array_equal(pairwise_path_losses_db(single),
                              np.zeros((1, 1)))


class TestRxPowerThreshold:
    def test_threshold_meets_the_error_target(self):
        threshold = rx_power_threshold_dbm(payload_on_air_bytes=133)
        model = EmpiricalBerModel()
        per = packet_error_probability(
            model.bit_error_probability(threshold), 133)
        assert per <= 0.01
        # And it is the *lowest* such power to within the bisection grid.
        just_below = packet_error_probability(
            model.bit_error_probability(threshold - 0.1), 133)
        assert just_below > 0.01 or threshold <= -94.0 + 0.1

    def test_longer_payloads_need_more_power(self):
        assert rx_power_threshold_dbm(266) >= rx_power_threshold_dbm(23)

    def test_stricter_targets_need_more_power(self):
        assert rx_power_threshold_dbm(133, target_packet_error=0.001) >= \
            rx_power_threshold_dbm(133, target_packet_error=0.05)


class TestLowestSufficientLevels:
    LEVELS = (-25.0, -15.0, -10.0, -5.0, 0.0)

    def test_picks_the_lowest_sufficient_level(self):
        # threshold -90: required = loss - 90
        assert lowest_sufficient_levels([60.0, 76.0, 84.0], -90.0,
                                        self.LEVELS) == [-25.0, -10.0, -5.0]

    def test_unreachable_losses_fall_back_to_the_maximum(self):
        assert lowest_sufficient_levels([200.0], -90.0, self.LEVELS) == [0.0]

    def test_exactly_sufficient_level_wins_against_round_off(self):
        """required == level must select that level, not the next one up,
        even when the loss + threshold sum rounds a hair high."""
        loss = 75.0 + 1e-13  # float noise above the exact -15 dBm boundary
        assert lowest_sufficient_levels([loss], -90.0, self.LEVELS) == [-15.0]
        assert LEVEL_MARGIN_DB > 0.0

    def test_empty_input(self):
        assert lowest_sufficient_levels([], -90.0, self.LEVELS) == []
