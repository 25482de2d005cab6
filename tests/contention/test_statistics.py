"""Unit tests of the contention statistics containers."""

import pytest

from repro.contention.statistics import ContentionStatistics, merge_statistics


def make_stats(**overrides):
    base = dict(
        load=0.42, packet_bytes=133, mean_contention_time_s=4e-3,
        mean_cca_count=2.6, collision_probability=0.05,
        channel_access_failure_probability=0.15, mean_backoff_slots=6.0,
        samples=100)
    base.update(overrides)
    return ContentionStatistics(**base)


class TestContentionStatistics:
    def test_valid_construction(self):
        stats = make_stats()
        assert stats.load == 0.42
        assert stats.samples == 100

    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            make_stats(collision_probability=1.5)
        with pytest.raises(ValueError):
            make_stats(channel_access_failure_probability=-0.1)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            make_stats(mean_contention_time_s=-1.0)
        with pytest.raises(ValueError):
            make_stats(mean_cca_count=-1.0)


class TestMergeStatistics:
    def test_merge_is_sample_weighted(self):
        a = make_stats(channel_access_failure_probability=0.1, samples=100)
        b = make_stats(channel_access_failure_probability=0.3, samples=300)
        merged = merge_statistics([a, b])
        assert merged.channel_access_failure_probability == pytest.approx(0.25)
        assert merged.samples == 400

    def test_merge_single_is_identity(self):
        stats = make_stats()
        merged = merge_statistics([stats])
        assert merged.mean_cca_count == stats.mean_cca_count

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_statistics([])

    def test_merge_mixed_points_rejected(self):
        with pytest.raises(ValueError):
            merge_statistics([make_stats(load=0.42), make_stats(load=0.5)])
        with pytest.raises(ValueError):
            merge_statistics([make_stats(packet_bytes=133),
                              make_stats(packet_bytes=63)])
