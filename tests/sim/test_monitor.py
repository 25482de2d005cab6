"""Unit tests of the statistics monitors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.monitor import CounterMonitor, Monitor


def filled(values):
    """A monitor holding ``values``."""
    monitor = Monitor()
    for value in values:
        monitor.record(value)
    return monitor


class TestMonitor:
    def test_empty_monitor_statistics_are_nan(self):
        monitor = Monitor("empty")
        assert monitor.count == 0
        assert math.isnan(monitor.mean)
        assert math.isnan(monitor.max)
        assert math.isnan(monitor.percentile(50))
        assert monitor.total == 0.0

    def test_basic_statistics(self):
        monitor = filled([1.0, 2.0, 3.0, 4.0])
        assert monitor.count == 4
        assert monitor.mean == pytest.approx(2.5)
        assert monitor.max == 4.0
        assert monitor.total == pytest.approx(10.0)
        assert monitor.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_percentile(self):
        monitor = filled(range(101))
        assert monitor.percentile(50) == pytest.approx(50.0)
        assert monitor.percentile(90) == pytest.approx(90.0)

    def test_percentile_extremes_are_the_extreme_samples(self):
        monitor = filled([3.0, -1.0, 7.0])
        assert monitor.percentile(0) == -1.0
        assert monitor.percentile(100) == monitor.max == 7.0

    def test_percentile_of_single_sample_is_that_sample(self):
        monitor = Monitor()
        monitor.record(42.0)
        for q in (0, 25, 50, 99, 100):
            assert monitor.percentile(q) == pytest.approx(42.0)

    def test_percentile_interpolates_between_samples(self):
        monitor = filled([0.0, 10.0])
        assert monitor.percentile(50) == pytest.approx(5.0)
        assert monitor.percentile(25) == pytest.approx(2.5)

    def test_std_of_single_sample_is_nan(self):
        monitor = Monitor()
        monitor.record(1.0)
        assert math.isnan(monitor.std)

    def test_values_property_is_a_copy(self):
        monitor = filled([1.0, 2.0])
        values = monitor.values
        values[0] = 99.0
        assert monitor.values[0] == 1.0

    def test_confidence_interval_contains_mean(self):
        monitor = filled([10.0] * 50)
        low, high = monitor.confidence_interval()
        assert low == pytest.approx(10.0)
        assert high == pytest.approx(10.0)

    def test_confidence_interval_single_sample_is_nan(self):
        monitor = Monitor()
        monitor.record(1.0)
        low, high = monitor.confidence_interval()
        assert math.isnan(low) and math.isnan(high)

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                     allow_nan=False), min_size=1, max_size=50))
    def test_mean_bounded_by_min_max(self, values):
        monitor = filled(values)
        assert min(values) - 1e-9 <= monitor.mean <= monitor.max + 1e-9


class TestCounterMonitor:
    def test_increment_and_get(self):
        counters = CounterMonitor()
        counters.increment("tx")
        counters.increment("tx", 2)
        assert counters.get("tx") == 3
        assert counters["tx"] == 3

    def test_unknown_counter_is_zero(self):
        assert CounterMonitor().get("missing") == 0

    def test_as_dict_is_a_copy(self):
        counters = CounterMonitor()
        counters.increment("x")
        snapshot = counters.as_dict()
        snapshot["x"] = 99
        assert counters.get("x") == 1
