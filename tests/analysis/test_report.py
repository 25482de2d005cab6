"""Unit tests of the paper-vs-measured experiment reports."""

import math

import pytest

from repro.analysis.report import ComparisonRow, ExperimentReport


class TestComparisonRow:
    def test_relative_error(self):
        row = ComparisonRow("q", paper_value=100.0, measured_value=110.0,
                            tolerance=0.2)
        assert row.relative_error == pytest.approx(0.1)
        assert row.within_tolerance is True

    def test_outside_tolerance(self):
        row = ComparisonRow("q", 100.0, 150.0, tolerance=0.2)
        assert row.within_tolerance is False

    def test_no_paper_value_is_informational(self):
        row = ComparisonRow("q", None, 5.0, tolerance=0.1)
        assert row.relative_error is None
        assert row.within_tolerance is None

    def test_no_tolerance_is_informational(self):
        row = ComparisonRow("q", 1.0, 2.0)
        assert row.within_tolerance is None

    def test_infinite_measurement(self):
        row = ComparisonRow("q", 1.0, math.inf, tolerance=0.5)
        assert row.within_tolerance is False


class TestExperimentReport:
    def make_report(self):
        report = ExperimentReport("EXP-X", "example")
        report.add("good", 10.0, 10.5, tolerance=0.1)
        report.add("informational", None, 3.0)
        return report

    def test_all_within_tolerance(self):
        report = self.make_report()
        assert report.all_within_tolerance
        report.add("bad", 10.0, 20.0, tolerance=0.1)
        assert not report.all_within_tolerance

    def test_empty_report_passes(self):
        assert ExperimentReport("EXP-Y", "empty").all_within_tolerance
