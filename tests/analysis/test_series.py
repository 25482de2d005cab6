"""Unit tests of the series containers."""

import numpy as np
import pytest

from repro.analysis.series import Series, SeriesCollection


class TestSeries:
    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            Series("s", [1, 2, 3], [1, 2])

    def test_interpolation(self):
        series = Series("s", [0.0, 1.0, 2.0], [0.0, 10.0, 20.0])
        assert series.interpolate(0.5) == pytest.approx(5.0)
        assert series.interpolate(5.0) == pytest.approx(20.0)   # clamped

    def test_len(self):
        assert len(Series("s", [1, 2, 3], [4, 5, 6])) == 3


class TestSeriesCollection:
    def make_collection(self):
        collection = SeriesCollection("fig", "x", "y")
        collection.add(Series("a", [0, 1], [1, 2]))
        collection.add(Series("b", [0, 1], [3, 4]))
        return collection

    def test_labels_and_get(self):
        collection = self.make_collection()
        assert collection.labels() == ["a", "b"]
        assert collection.get("b").y[1] == 4

    def test_get_unknown_label_raises(self):
        with pytest.raises(KeyError):
            self.make_collection().get("missing")
