"""Tests of the Pareto analysis layer, incl. dominance properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep.analysis import dominates, knee_point, pareto_front

OBJECTIVES = {"power": "min", "fail": "min"}


def row(power, fail, **extra):
    return {"power": power, "fail": fail, **extra}


class TestDominates:
    def test_strictly_better_dominates(self):
        assert dominates(row(1.0, 0.1), row(2.0, 0.2), OBJECTIVES)

    def test_equal_rows_do_not_dominate_each_other(self):
        assert not dominates(row(1.0, 0.1), row(1.0, 0.1), OBJECTIVES)

    def test_trade_off_rows_do_not_dominate(self):
        assert not dominates(row(1.0, 0.5), row(2.0, 0.1), OBJECTIVES)
        assert not dominates(row(2.0, 0.1), row(1.0, 0.5), OBJECTIVES)

    def test_max_sense_flips_the_comparison(self):
        objectives = {"throughput": "max"}
        assert dominates({"throughput": 9}, {"throughput": 3}, objectives)
        assert not dominates({"throughput": 3}, {"throughput": 9}, objectives)

    def test_missing_value_is_worst(self):
        assert dominates(row(1.0, 0.1), row(1.0, None), OBJECTIVES)
        assert not dominates(row(1.0, None), row(1.0, 0.1), OBJECTIVES)

    def test_empty_objectives_rejected(self):
        with pytest.raises(ValueError):
            dominates(row(1, 1), row(2, 2), {})


class TestParetoFront:
    def test_known_front(self):
        rows = [row(1.0, 0.5, tag="a"), row(2.0, 0.1, tag="b"),
                row(3.0, 0.5, tag="c"), row(1.5, 0.3, tag="d")]
        front = pareto_front(rows, OBJECTIVES)
        assert [r["tag"] for r in front] == ["a", "b", "d"]

    def test_duplicate_optima_all_kept(self):
        rows = [row(1.0, 0.1), row(1.0, 0.1), row(2.0, 0.2)]
        assert len(pareto_front(rows, OBJECTIVES)) == 2

    def test_all_missing_rows_are_excluded(self):
        rows = [row(None, None), row(1.0, 0.2)]
        front = pareto_front(rows, OBJECTIVES)
        assert front == [row(1.0, 0.2)]

    def test_empty_input(self):
        assert pareto_front([], OBJECTIVES) == []

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 1)),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_front_is_dominance_correct(self, points):
        """Property: no front member is dominated by any input row, and
        every excluded (usable) row is dominated by some front member or
        duplicates one."""
        rows = [row(power, fail, index=i)
                for i, (power, fail) in enumerate(points)]
        front = pareto_front(rows, OBJECTIVES)
        assert front, "a non-empty usable input always has a front"
        front_indices = {r["index"] for r in front}
        for member in front:
            assert not any(dominates(other, member, OBJECTIVES)
                           for other in rows)
        for excluded in rows:
            if excluded["index"] in front_indices:
                continue
            assert any(dominates(member, excluded, OBJECTIVES)
                       for member in front)

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 1)),
                    min_size=1, max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_front_is_idempotent(self, points):
        rows = [row(power, fail) for power, fail in points]
        front = pareto_front(rows, OBJECTIVES)
        assert pareto_front(front, OBJECTIVES) == front


class TestKneePoint:
    def test_balanced_point_wins(self):
        rows = [row(0.0, 1.0), row(0.4, 0.4), row(1.0, 0.0)]
        assert knee_point(rows, OBJECTIVES) == row(0.4, 0.4)

    def test_single_row_is_its_own_knee(self):
        assert knee_point([row(5.0, 0.5)], OBJECTIVES) == row(5.0, 0.5)

    def test_degenerate_objective_ignored(self):
        rows = [row(1.0, 0.5), row(2.0, 0.5)]
        assert knee_point(rows, OBJECTIVES) == row(1.0, 0.5)

    def test_no_usable_rows_gives_none(self):
        assert knee_point([], OBJECTIVES) is None
        assert knee_point([row(None, None)], OBJECTIVES) is None

    def test_knee_is_on_the_front(self):
        rows = [row(float(p), 1.0 / (1.0 + p)) for p in range(10)]
        front = pareto_front(rows, OBJECTIVES)
        assert knee_point(front, OBJECTIVES) in front


class TestRequireMetrics:
    def test_known_metrics_pass(self):
        from repro.sweep.analysis import require_metrics
        require_metrics(["power"], ["power", "fail"])
        require_metrics({"fail": "min"}, ["power", "fail"])

    def test_unknown_metric_raises_with_suggestions(self):
        from repro.sweep.analysis import UnknownMetricError, require_metrics
        with pytest.raises(UnknownMetricError) as excinfo:
            require_metrics(["mean_power"], ["mean_power_uw", "fail"],
                            context="optimize 'x'")
        message = str(excinfo.value)
        assert "optimize 'x'" in message
        assert "mean_power_uw" in message
        assert "Did you mean" in message

    def test_is_a_key_error_for_the_cli_path(self):
        from repro.sweep.analysis import UnknownMetricError, require_metrics
        with pytest.raises(KeyError):
            require_metrics(["nope"], [])
        assert issubclass(UnknownMetricError, KeyError)
