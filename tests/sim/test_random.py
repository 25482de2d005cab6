"""Unit tests of the reproducible random-stream manager."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.random import RandomStreams, stream_replica


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(1)
        assert streams.get("a") is streams.get("a")

    def test_different_names_give_independent_streams(self):
        streams = RandomStreams(1)
        a = streams.get("a").random(100)
        b = streams.get("b").random(100)
        assert not np.allclose(a, b)

    def test_same_seed_reproduces_values(self):
        first = RandomStreams(7).get("csma").random(50)
        second = RandomStreams(7).get("csma").random(50)
        assert np.allclose(first, second)

    def test_different_seeds_differ(self):
        first = RandomStreams(1).get("csma").random(50)
        second = RandomStreams(2).get("csma").random(50)
        assert not np.allclose(first, second)

    def test_stream_independent_of_creation_order(self):
        forward = RandomStreams(3)
        forward.get("a")
        forward_b = forward.get("b").random(20)
        backward = RandomStreams(3)
        backward.get("b")
        backward_b = backward.get("b")
        # "b" was consumed once in backward; re-create to compare fresh streams.
        fresh = RandomStreams(3).get("b").random(20)
        assert np.allclose(forward_b, fresh)

    def test_contains_and_len(self):
        streams = RandomStreams(0)
        assert "a" not in streams
        streams.get("a")
        assert "a" in streams
        assert len(streams) == 1

    @settings(max_examples=25, deadline=None)
    @given(name=st.text(min_size=1, max_size=30))
    def test_any_stream_name_is_accepted(self, name):
        streams = RandomStreams(11)
        generator = streams.get(name)
        sample = generator.random()
        assert 0.0 <= sample < 1.0


class TestSpawnSeeds:
    def test_deterministic(self):
        from repro.sim.random import spawn_seeds

        assert spawn_seeds(7, "windows", 5) == spawn_seeds(7, "windows", 5)

    def test_distinct_within_family(self):
        from repro.sim.random import spawn_seeds

        seeds = spawn_seeds(7, "windows", 16)
        assert len(set(seeds)) == 16

    def test_master_seed_and_name_decorrelate(self):
        from repro.sim.random import spawn_seeds

        base = spawn_seeds(7, "windows", 4)
        assert spawn_seeds(8, "windows", 4) != base
        assert spawn_seeds(7, "slots", 4) != base

    def test_prefix_stability(self):
        # Growing the family keeps the existing seeds, so adding grid points
        # to an experiment does not reshuffle the completed ones.
        from repro.sim.random import spawn_seeds

        assert spawn_seeds(7, "windows", 8)[:4] == spawn_seeds(7, "windows", 4)

    def test_negative_count_rejected(self):
        from repro.sim.random import spawn_seeds

        with pytest.raises(ValueError):
            spawn_seeds(7, "windows", -1)


#: Masters around every 32-bit word boundary a seed sequence splits on,
#: up to one wider than its 128-bit pool.
SPECIAL_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 1]

masters = st.one_of(st.sampled_from(SPECIAL_MASTERS),
                    st.integers(min_value=0, max_value=2**130))


class TestPrimedStreams:
    """One-pass seeding must open exactly the streams ``SeedSequence``
    opens one by one (the batched MAC kernel's equivalence rests on it)."""

    @staticmethod
    def assert_same_stream(batch, reference):
        assert batch.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(batch.bit_generator.random_raw(16),
                              reference.bit_generator.random_raw(16))

    @settings(max_examples=150, deadline=None)
    @given(families=st.lists(
        st.tuples(masters, st.lists(st.text(), min_size=1, max_size=4,
                                    unique=True)),
        min_size=1, max_size=4))
    def test_matches_seed_sequence(self, families):
        primed = list(RandomStreams.primed(families))
        assert len(primed) == len(families)
        for (master, names), streams in zip(families, primed):
            assert streams._master_seed == master
            for name in names:
                self.assert_same_stream(streams.replica(name),
                                        RandomStreams(master).get(name))
                self.assert_same_stream(streams.replica(name),
                                        stream_replica(master, name))
                self.assert_same_stream(streams.get(name),
                                        RandomStreams(master).get(name))

    @pytest.mark.parametrize("entropy", [0, 1, 2**32, 2**64 - 1, 2**96 - 1,
                                         2**128 - 1])
    def test_short_name_entropies(self, monkeypatch, entropy):
        """A name hashing to fewer than four 32-bit words is a shorter
        spawn key; force each length through the name hash."""
        import repro.sim.random as random_module

        monkeypatch.setattr(random_module, "_name_digest",
                            lambda name: entropy.to_bytes(16, "little"))
        for master in SPECIAL_MASTERS:
            [streams] = RandomStreams.primed([(master, ["x"])])
            self.assert_same_stream(streams.get("x"),
                                    RandomStreams(master).get("x"))

    def test_replica_replays_from_variate_zero(self):
        [streams] = RandomStreams.primed([(5, ["traffic[3]"])])
        first = streams.get("traffic[3]").random(8)
        assert np.array_equal(streams.replica("traffic[3]").random(8), first)
        # an unprimed family replays through the seed sequence
        plain = RandomStreams(5)
        assert np.array_equal(plain.replica("traffic[3]").random(8), first)
        assert "traffic[3]" not in plain

    def test_streams_open_on_first_use_at_their_seed(self):
        [streams] = RandomStreams.primed([(5, ["a", "b"])])
        assert len(streams) == 0
        first = streams.get("a").random(4)
        assert "a" in streams and "b" not in streams
        [again] = RandomStreams.primed([(5, ["a", "b"])])
        assert np.array_equal(again.get("a").random(4), first)

    def test_unseeded_family_seeds_streams_one_by_one(self):
        [streams] = RandomStreams.primed([(None, ["a"])])
        assert streams._master_seed is None
        assert 0.0 <= streams.get("a").random() < 1.0

    def test_precomputed_words_serve_only_their_own_request(self):
        """A bit generator reads the seed words through a raw pointer, so
        any other request than four contiguous uint64 words must raise."""
        from repro.sim.random import _seed_words_type

        seed_words = _seed_words_type()
        words = np.arange(8, dtype=np.uint64)
        assert seed_words(words[:4]).generate_state(4, np.uint64) is not None
        for request in ((4, np.uint32), (8, np.uint64)):
            with pytest.raises(ValueError):
                seed_words(words[:4]).generate_state(*request)
        with pytest.raises(ValueError):
            seed_words(words[::2]).generate_state(4, np.uint64)

    def test_negative_master_is_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams.primed([(-1, ["a"])])

    def test_seeding_mismatch_stops_the_batched_kernel(self, monkeypatch):
        """A numpy whose seed sequences drift from the one-pass arithmetic
        must fail the kernel's first-use probe, not shift its variates."""
        import repro.mac.vectorized as vectorized
        import repro.sim.random as random_module
        from repro.mac.superframe import SuperframeConfig
        from repro.network.node import SensorNode
        from repro.network.scenario import ChannelScenario

        exact = random_module._seed_words
        monkeypatch.setattr(random_module, "_seed_words",
                            lambda *pairs: exact(*pairs) ^ np.uint64(1))
        monkeypatch.setattr(vectorized, "_raw_compat", None)
        nodes = [SensorNode(node_id=i, channel=11, path_loss_db=70.0,
                            tx_power_dbm=0.0) for i in range(1, 5)]
        channel = ChannelScenario(
            nodes, SuperframeConfig(beacon_order=2, superframe_order=2),
            payload_bytes=100, seed=5)
        with pytest.raises(RuntimeError,
                           match=re.escape(f"numpy {np.__version__}")):
            channel.run(superframes=2, backend="batched")
