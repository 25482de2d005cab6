"""Unit tests of the path-loss models and distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    UniformPathLossDistribution,
)


class TestFreeSpacePathLoss:
    def test_known_value_at_one_metre(self):
        # 20 log10(4 pi / lambda) at 2.44 GHz is about 40.2 dB.
        model = FreeSpacePathLoss()
        assert model.attenuation_db(1.0) == pytest.approx(40.2, abs=0.5)

    def test_six_db_per_distance_doubling(self):
        model = FreeSpacePathLoss()
        assert model.attenuation_db(20.0) - model.attenuation_db(10.0) == \
            pytest.approx(6.02, abs=0.01)

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValueError):
            FreeSpacePathLoss().attenuation_db(0.0)


class TestLogDistancePathLoss:
    def test_reduces_to_reference_at_reference_distance(self):
        model = LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0)
        assert model.attenuation_db(1.0) == pytest.approx(40.0)

    def test_exponent_controls_slope(self):
        model = LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0)
        assert model.attenuation_db(10.0) == pytest.approx(70.0)
        steeper = LogDistancePathLoss(exponent=4.0, reference_loss_db=40.0)
        assert steeper.attenuation_db(10.0) == pytest.approx(80.0)

    def test_default_reference_is_free_space(self):
        model = LogDistancePathLoss(exponent=2.0)
        free_space = FreeSpacePathLoss()
        assert model.attenuation_db(1.0) == pytest.approx(
            free_space.attenuation_db(1.0))

    def test_shadowing_disabled_without_rng(self):
        model = LogDistancePathLoss(exponent=3.0, shadowing_sigma_db=8.0,
                                    reference_loss_db=40.0)
        assert model.attenuation_db(10.0) == pytest.approx(70.0)

    def test_shadowing_adds_variation(self):
        model = LogDistancePathLoss(exponent=3.0, shadowing_sigma_db=8.0,
                                    reference_loss_db=40.0)
        rng = np.random.default_rng(0)
        samples = [model.attenuation_db(10.0, rng=rng) for _ in range(200)]
        assert np.std(samples) == pytest.approx(8.0, rel=0.25)

    def test_distances_below_reference_clamped(self):
        model = LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0,
                                    reference_distance_m=1.0)
        assert model.attenuation_db(0.5) == pytest.approx(40.0)

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss().attenuation_db(-1.0)


class TestUniformPathLossDistribution:
    def test_paper_default_bounds(self):
        distribution = UniformPathLossDistribution()
        assert distribution.low_db == 55.0
        assert distribution.high_db == 95.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformPathLossDistribution(low_db=60.0, high_db=60.0)

    def test_grid_is_equal_mass(self):
        distribution = UniformPathLossDistribution(55.0, 95.0)
        grid = distribution.grid(4)
        assert np.allclose(grid, [60.0, 70.0, 80.0, 90.0])

    def test_grid_requires_positive_count(self):
        with pytest.raises(ValueError):
            UniformPathLossDistribution().grid(0)
