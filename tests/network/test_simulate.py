"""Seed spawning and replication semantics of the network fan-out.

The batched backend's equivalence contract rests on the seed plumbing:
every (channel, replication) lane must receive exactly the seed the
per-channel task fan-out would have used, whatever the batch shape, and
raising the replication count must extend — never perturb — the existing
replications.  The property tests pin those invariants over arbitrary
seeds; the run-level tests check the row shapes the backends report.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.simulate import replication_seeds, simulate_network
from repro.network.spec import ScenarioSpec

seeds = st.integers(min_value=0, max_value=2**63 - 1)


class TestReplicationSeeds:
    @settings(max_examples=50, deadline=None)
    @given(channel_seed=seeds)
    def test_replication_zero_is_the_channel_seed(self, channel_seed):
        assert replication_seeds(channel_seed, 1) == [channel_seed]
        assert replication_seeds(channel_seed, 5)[0] == channel_seed

    @settings(max_examples=50, deadline=None)
    @given(channel_seed=seeds, short=st.integers(1, 8), extra=st.integers(0, 8))
    def test_prefix_stable_under_count_changes(self, channel_seed, short,
                                               extra):
        """Raising the count extends the list without moving earlier seeds,
        so cached replication results stay valid when more are requested."""
        long = replication_seeds(channel_seed, short + extra)
        assert replication_seeds(channel_seed, short) == long[:short]

    @settings(max_examples=50, deadline=None)
    @given(channel_seed=seeds, count=st.integers(2, 16))
    def test_seeds_pairwise_distinct(self, channel_seed, count):
        spawned = replication_seeds(channel_seed, count)
        assert len(set(spawned)) == count

    @settings(max_examples=25, deadline=None)
    @given(left=seeds, right=seeds, count=st.integers(1, 8))
    def test_distinct_channels_spawn_disjoint_streams(self, left, right,
                                                      count):
        if left == right:
            return
        overlap = (set(replication_seeds(left, count))
                   & set(replication_seeds(right, count)))
        assert not overlap

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_must_be_positive(self, count):
        with pytest.raises(ValueError, match="at least 1"):
            replication_seeds(7, count)


def tiny_spec(**overrides):
    defaults = dict(total_nodes=6, num_channels=2, beacon_order=3)
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def assert_rows_equal(rows, reference, rel_keys=()):
    """Rows equal key by key: floats to 1e-9, everything else exactly
    unless its key is in ``rel_keys`` (compared to 1e-9 as well)."""
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        assert set(row) == set(ref)
        for key, value in ref.items():
            if isinstance(value, float) or key in rel_keys:
                assert row[key] == pytest.approx(value, rel=1e-9), key
            else:
                assert row[key] == value, key


class TestReplicatedNetworkRuns:
    def test_single_replication_rows_have_no_replication_key(self):
        for backend in ("event", "batched"):
            rows = simulate_network(tiny_spec(), superframes=3, seed=4,
                                    backend=backend)
            assert all("replication" not in row for row in rows), backend

    def test_replicated_rows_are_channel_major_and_tagged(self):
        rows = simulate_network(tiny_spec(), superframes=3, seed=4,
                                backend="batched", replications=3)
        assert [row["replication"] for row in rows] == [0, 1, 2] * 2
        channels = [row["channel"] for row in rows]
        assert channels == sorted(channels)

    def test_batched_and_per_channel_replications_identical(self):
        """The batch *is* the fan-out: same rows, same order, same seeds —
        counts exact against the event kernel's per-channel tasks, powers,
        delays and per-phase energies to 1e-9."""
        spec = tiny_spec()
        batched = simulate_network(spec, superframes=3, seed=4,
                                   backend="batched", replications=3)
        fanout = simulate_network(spec, superframes=3, seed=4,
                                  backend="event", replications=3)
        assert_rows_equal(batched, fanout, rel_keys=("energy_by_phase_j",))

    def test_replication_zero_reproduces_the_unreplicated_run(self):
        """Replication 0 draws the channel's historical seed, so adding
        replications never changes the result a plain run reports."""
        spec = tiny_spec()
        plain = simulate_network(spec, superframes=3, seed=4,
                                 backend="batched")
        replicated = simulate_network(spec, superframes=3, seed=4,
                                      backend="batched", replications=4)
        rep_zero = [dict(row) for row in replicated
                    if row["replication"] == 0]
        for row in rep_zero:
            row.pop("replication")
        assert_rows_equal(rep_zero, plain)

    def test_raising_replications_extends_without_perturbing(self):
        spec = tiny_spec()
        short = simulate_network(spec, superframes=3, seed=4,
                                 backend="batched", replications=2)
        long = simulate_network(spec, superframes=3, seed=4,
                                backend="batched", replications=4)
        kept = [row for row in long if row["replication"] < 2]
        assert_rows_equal(kept, short)


def routed_spec(max_hops=2, **overrides):
    from repro.network.routing import GradientRouting
    from repro.network.topology import GridTopologyModel

    defaults = dict(total_nodes=12, num_channels=2, beacon_order=3,
                    topology=GridTopologyModel(),
                    routing=GradientRouting(max_hops=max_hops))
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestMultiHopRows:
    def test_star_rows_have_no_by_depth_key(self):
        """The star path must stay byte-identical: no new row key."""
        for backend in ("batched", "event"):
            rows = simulate_network(tiny_spec(), superframes=3, seed=4,
                                    backend=backend)
            assert all("by_depth" not in row for row in rows), backend

    def test_routed_rows_carry_the_depth_breakdown(self):
        rows = simulate_network(routed_spec(), superframes=3, seed=4,
                                backend="batched")
        for row in rows:
            assert set(row["by_depth"]) == {1}  # 6-node channels: ring 1
            bucket = row["by_depth"][1]
            assert bucket["nodes"] == row["nodes"]
            assert bucket["packets_attempted"] == row["packets_attempted"]
            assert bucket["mean_power_uw"] == \
                pytest.approx(row["mean_power_uw"])

    def test_backends_agree_on_routed_channels(self):
        """Multi-hop forwarding preserves the two-kernel equivalence:
        identical counts, power to float-summation noise."""
        spec = routed_spec(max_hops=2, total_nodes=24, num_channels=1)
        results = {backend: simulate_network(spec, superframes=4, seed=7,
                                             backend=backend)
                   for backend in ("batched", "event")}
        reference = results["event"]
        for backend, rows in results.items():
            for row, ref in zip(rows, reference):
                assert row["packets_attempted"] == ref["packets_attempted"]
                assert row["packets_delivered"] == ref["packets_delivered"]
                assert row["channel_access_failures"] == \
                    ref["channel_access_failures"], backend
                assert row["mean_power_uw"] == \
                    pytest.approx(ref["mean_power_uw"], rel=1e-9)
                assert sorted(row["by_depth"]) == sorted(ref["by_depth"])
                for hop_depth, bucket in row["by_depth"].items():
                    ref_bucket = ref["by_depth"][hop_depth]
                    assert bucket["nodes"] == ref_bucket["nodes"]
                    assert bucket["packets_delivered"] == \
                        ref_bucket["packets_delivered"]
                    assert bucket["mean_power_uw"] == \
                        pytest.approx(ref_bucket["mean_power_uw"], rel=1e-9)

    def test_max_nodes_cannot_truncate_a_routed_channel(self):
        with pytest.raises(ValueError, match="truncate a routed channel"):
            simulate_network(routed_spec(), superframes=3, seed=4,
                             backend="event", max_nodes_per_channel=3)

    def test_replications_extend_routed_runs_too(self):
        spec = routed_spec()
        plain = simulate_network(spec, superframes=3, seed=4,
                                 backend="batched")
        replicated = simulate_network(spec, superframes=3, seed=4,
                                      backend="batched", replications=3)
        rep_zero = [dict(row) for row in replicated
                    if row["replication"] == 0]
        for row in rep_zero:
            row.pop("replication")
        assert_rows_equal(rep_zero, plain)


class TestDepthAggregation:
    def test_aggregate_merges_depth_buckets(self):
        from repro.network.simulate import aggregate_channel_rows

        spec = routed_spec(max_hops=2, total_nodes=24, num_channels=1)
        rows = simulate_network(spec, superframes=4, seed=7,
                                backend="batched")
        aggregate = aggregate_channel_rows(rows)
        by_depth = aggregate["by_depth"]
        assert sorted(by_depth) == [1, 2]
        assert sum(bucket["nodes"] for bucket in by_depth.values()) == \
            aggregate["nodes"]
        assert sum(bucket["packets_attempted"]
                   for bucket in by_depth.values()) == \
            aggregate["packets_attempted"]

    def test_aggregate_tolerates_json_stringified_depth_keys(self):
        """Cache artifacts stringify dict keys; a replayed row must merge
        exactly like a fresh one."""
        import json

        from repro.network.simulate import aggregate_channel_rows

        spec = routed_spec(max_hops=2, total_nodes=24, num_channels=1)
        rows = simulate_network(spec, superframes=4, seed=7,
                                backend="batched")
        replayed = json.loads(json.dumps(rows))
        assert aggregate_channel_rows(replayed) == \
            aggregate_channel_rows(rows)

    def test_replicated_aggregate_counts_nodes_once(self):
        from repro.network.simulate import aggregate_channel_rows

        spec = routed_spec()
        rows = simulate_network(spec, superframes=3, seed=4,
                                backend="batched", replications=3)
        aggregate = aggregate_channel_rows(rows)
        assert sum(b["nodes"] for b in aggregate["by_depth"].values()) == \
            aggregate["nodes"] == spec.total_nodes

    def test_star_aggregate_has_no_by_depth(self):
        from repro.network.simulate import aggregate_channel_rows

        rows = simulate_network(tiny_spec(), superframes=3, seed=4,
                                backend="batched")
        assert "by_depth" not in aggregate_channel_rows(rows)
