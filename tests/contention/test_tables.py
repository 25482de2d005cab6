"""Unit tests of the contention lookup tables and interpolation."""

import pytest

from repro.contention.statistics import ContentionStatistics
from repro.contention.tables import ContentionTable, build_contention_table


def synthetic_source(load, packet_bytes):
    """Deterministic, smooth statistics used to test interpolation exactly."""
    return ContentionStatistics(
        load=load,
        packet_bytes=packet_bytes,
        mean_contention_time_s=1e-3 * (1.0 + load),
        mean_cca_count=2.0 + load,
        collision_probability=min(1.0, 0.1 * load),
        channel_access_failure_probability=min(1.0, 0.2 * load),
        mean_backoff_slots=3.0 + load,
        samples=10,
    )


def synthetic_table(loads, packet_sizes):
    """A table holding the synthetic statistics at every grid point."""
    return ContentionTable(loads, packet_sizes, {
        (i, j): synthetic_source(load, size)
        for i, load in enumerate(loads)
        for j, size in enumerate(packet_sizes)})


class TestContentionTable:
    @pytest.fixture(scope="class")
    def table(self):
        return synthetic_table(loads=[0.1, 0.5, 0.9], packet_sizes=[20, 133])

    def test_grid_point_lookup_is_exact(self, table):
        stats = table.lookup(0.5, 133)
        assert stats.mean_cca_count == pytest.approx(2.5)
        assert stats.channel_access_failure_probability == pytest.approx(0.1)

    def test_interpolation_between_loads(self, table):
        stats = table.lookup(0.3, 133)
        assert stats.mean_cca_count == pytest.approx(2.3)
        assert stats.mean_contention_time_s == pytest.approx(1.3e-3)

    def test_queries_clamped_to_grid(self, table):
        below = table.lookup(0.01, 133)
        above = table.lookup(2.0, 133)
        assert below.mean_cca_count == pytest.approx(2.1)
        assert above.mean_cca_count == pytest.approx(2.9)

    def test_packet_size_interpolation(self, table):
        # The synthetic source does not depend on packet size, so any size
        # query must return the same values.
        assert table.lookup(0.5, 60).mean_cca_count == pytest.approx(
            table.lookup(0.5, 133).mean_cca_count)

    def test_callable_interface(self, table):
        assert table(0.5, 133).mean_cca_count == pytest.approx(2.5)

    def test_grid_statistics_enumeration(self, table):
        assert len(table.grid_statistics()) == 6

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            synthetic_table(loads=[0.5, 0.1], packet_sizes=[20])

    def test_missing_grid_point_rejected(self):
        with pytest.raises(ValueError):
            ContentionTable(loads=[0.1, 0.5], packet_sizes=[20],
                            statistics={(0, 0): synthetic_source(0.1, 20)})


class TestBuildContentionTable:
    def test_build_from_monte_carlo(self):
        table = build_contention_table([0.2, 0.6], [63], num_windows=4,
                                       seed=5, num_nodes=30)
        low = table.lookup(0.2, 63)
        high = table.lookup(0.6, 63)
        assert low.channel_access_failure_probability <= \
            high.channel_access_failure_probability
        # Interpolated point lies between the grid values.
        mid = table.lookup(0.4, 63)
        assert low.mean_cca_count <= mid.mean_cca_count <= high.mean_cca_count

    def test_executor_mode_is_jobs_invariant(self):
        from repro.runner.executor import ProcessExecutor

        in_caller = build_contention_table([0.2, 0.6], [33, 63],
                                           num_windows=2, executor=None,
                                           seed=9, num_nodes=25)
        serial = build_contention_table([0.2, 0.6], [33, 63], num_windows=2,
                                        executor=ProcessExecutor(jobs=1),
                                        seed=9, num_nodes=25)
        parallel = build_contention_table([0.2, 0.6], [33, 63], num_windows=2,
                                          executor=ProcessExecutor(jobs=2),
                                          seed=9, num_nodes=25)
        assert in_caller.grid_statistics() == serial.grid_statistics()
        assert serial.grid_statistics() == parallel.grid_statistics()

    @pytest.mark.parametrize("loads, packet_sizes", [([0.9, 0.1], [133]),
                                                     ([0.1], [133, 20]),
                                                     ((0.9, 0.1), (133, 20))])
    def test_misordered_axes_rejected_before_any_point_runs(self, loads,
                                                            packet_sizes):
        class RecordingExecutor:
            def __init__(self):
                self.calls = []

            def map_tasks(self, function, tasks, local=()):
                self.calls.append(list(tasks))
                return iter(())

        executor = RecordingExecutor()
        with pytest.raises(ValueError, match="ascending order"):
            build_contention_table(loads, packet_sizes, num_windows=15,
                                   executor=executor)
        assert executor.calls == []


class TestPayloadRoundTrip:
    def test_to_payload_from_payload(self):
        table = build_contention_table([0.2, 0.6], [33, 63], num_windows=2,
                                       seed=7, num_nodes=20)
        clone = ContentionTable.from_payload(table.to_payload())
        assert clone.loads == table.loads
        assert clone.packet_sizes == table.packet_sizes
        assert clone.grid_statistics() == table.grid_statistics()

    def test_payload_survives_json(self):
        import json

        table = build_contention_table([0.42], [133], num_windows=2, seed=7,
                                       num_nodes=20)
        payload = json.loads(json.dumps(table.to_payload()))
        clone = ContentionTable.from_payload(payload)
        assert clone.grid_statistics() == table.grid_statistics()
