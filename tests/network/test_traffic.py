"""Unit and property tests of the traffic-model subsystem.

Covers the periodic sensing arithmetic, every registered
:class:`repro.network.traffic.TrafficModel`, and the properties the MAC
kernels rely on: byte conservation (deposited == drained + buffered), no
packet before ``payload_bytes`` accumulated, boundary samples drainable in
the superframe they land on, seeded sources that reproduce the same
arrival process regardless of how the polling is chunked, and arrival
schedules (``packet_counts``) that match lazy polling on beacon grids.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.superframe import SuperframeConfig
from repro.network.traffic import (TRAFFIC_MODEL_KINDS, BufferedTrafficSource,
                                   BurstyAlarmTraffic, MixedPopulation,
                                   PeriodicSensingTraffic, PoissonTraffic,
                                   SaturatedTraffic, build_traffic_model)


def sample_count(time_s: float, interval_s: float = 8e-3) -> int:
    """Boundary-inclusive sensing events by ``time_s`` (event at t counts)."""
    return int(math.floor(time_s / interval_s + 1e-9))


class TestPeriodicSensingTraffic:
    def test_paper_defaults(self):
        traffic = PeriodicSensingTraffic()
        assert traffic.data_rate_bps == pytest.approx(1000.0)
        assert traffic.samples_per_packet == 120
        assert traffic.packet_period_s == pytest.approx(0.960)

    def test_offered_load_matches_paper(self):
        # 100 nodes x 133 bytes / 960 ms over 250 kbit/s ~= 0.44.
        traffic = PeriodicSensingTraffic()
        load = traffic.offered_load(nodes=100, channel_bit_rate_bps=250_000.0)
        assert load == pytest.approx(0.44, abs=0.02)

    def test_buffering_delay_is_half_packet_period(self):
        assert PeriodicSensingTraffic().buffering_delay_s() == pytest.approx(0.48)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PeriodicSensingTraffic(sample_bytes=0)
        with pytest.raises(ValueError):
            PeriodicSensingTraffic(sampling_interval_s=0.0)
        with pytest.raises(ValueError):
            PeriodicSensingTraffic(sample_bytes=7, payload_bytes=120)

    def test_invalid_queries(self):
        traffic = PeriodicSensingTraffic()
        with pytest.raises(ValueError):
            traffic.offered_load(nodes=-1, channel_bit_rate_bps=250e3)
        with pytest.raises(ValueError):
            traffic.offered_load(nodes=1, channel_bit_rate_bps=0.0)

    def test_make_source_is_primed_for_steady_state(self):
        """The kernel-facing source starts with one full payload buffered."""
        source = PeriodicSensingTraffic().make_source()
        assert source.poll(0.0)
        assert source.drain_packet() == 120
        assert not source.packet_available()


class TestBufferedTrafficSource:
    def test_no_packet_before_accumulation(self):
        source = BufferedTrafficSource()
        source.deposit_until(0.5)         # 62 samples of 1 byte
        assert not source.packet_available()
        assert source.buffered_bytes == 62

    def test_packet_available_after_960_ms(self):
        source = BufferedTrafficSource()
        source.deposit_until(0.961)
        assert source.packet_available()
        assert source.drain_packet() == 120
        assert source.buffered_bytes == 0
        assert source.packets_drained == 1

    def test_sample_on_superframe_boundary_is_drainable(self):
        """A sensing event landing exactly on a superframe boundary belongs
        to the superframe that starts there: the 120th 8-ms sample lands at
        0.96 s, so a beacon at 0.96 s must find a drainable packet even
        though ``0.96 // 0.008`` is 119 in binary floating point."""
        source = BufferedTrafficSource()
        assert source.deposit_until(0.96) == 120
        assert source.packet_available()
        assert source.drain_packet() == 120

    def test_boundary_deposit_then_drain_order_is_stable(self):
        """Draining at the boundary then advancing must not double-count."""
        source = BufferedTrafficSource()
        source.deposit_until(0.96)
        source.drain_packet()
        assert source.deposit_until(0.96) == 0
        source.deposit_until(1.92)
        assert source.buffered_bytes == 120

    def test_drain_without_packet_raises(self):
        with pytest.raises(RuntimeError):
            BufferedTrafficSource().drain_packet()

    def test_time_cannot_move_backwards(self):
        source = BufferedTrafficSource()
        source.deposit_until(1.0)
        with pytest.raises(ValueError):
            source.deposit_until(0.5)

    def test_sub_epsilon_jitter_is_tolerated_like_advance_to(self):
        """Kernel poll instants can carry sub-1e-12 float jitter; the
        deposit path must absorb it exactly like ``advance_to`` promises
        instead of raising mid-simulation."""
        source = BufferedTrafficSource()
        source.poll(0.5)
        assert not source.poll(0.5 - 5e-13)
        assert source.buffered_bytes == 62

    def test_incremental_deposits_equal_single_deposit(self):
        incremental = BufferedTrafficSource()
        for step in range(1, 11):
            incremental.deposit_until(step * 0.1)
        single = BufferedTrafficSource()
        single.deposit_until(1.0)
        assert incremental.buffered_bytes == single.buffered_bytes

    def test_long_run_packet_rate(self):
        source = BufferedTrafficSource()
        source.deposit_until(9.601)
        drained = 0
        while source.packet_available():
            source.drain_packet()
            drained += 1
        assert drained == 10

    def test_primed_source_counts_priming_as_deposited(self):
        source = BufferedTrafficSource(initial_buffered_bytes=120)
        assert source.bytes_deposited == 120
        source.drain_packet()
        assert source.bytes_deposited == \
            source.bytes_drained + source.buffered_bytes

    @settings(max_examples=30, deadline=None)
    @given(times=st.lists(st.floats(min_value=0.0, max_value=5.0),
                          min_size=1, max_size=20))
    def test_buffer_never_negative_and_consistent(self, times):
        source = BufferedTrafficSource()
        for time in sorted(times):
            source.deposit_until(time)
            assert source.buffered_bytes >= 0
        assert source.buffered_bytes == sample_count(sorted(times)[-1])

    @settings(max_examples=50, deadline=None)
    @given(times=st.lists(st.floats(min_value=0.0, max_value=20.0),
                          min_size=1, max_size=30),
           drain_greedily=st.booleans())
    def test_byte_conservation_under_interleaved_drains(self, times,
                                                        drain_greedily):
        """deposited == drained + buffered at every point of any schedule."""
        source = BufferedTrafficSource()
        for time in sorted(times):
            source.deposit_until(time)
            if drain_greedily:
                while source.packet_available():
                    source.drain_packet()
            elif source.packet_available():
                source.drain_packet()
            assert source.bytes_deposited == \
                source.bytes_drained + source.buffered_bytes

    @settings(max_examples=50, deadline=None)
    @given(time=st.floats(min_value=0.0, max_value=0.959))
    def test_no_packet_before_payload_accumulated(self, time):
        """A cold periodic source can never emit before 120 samples exist."""
        source = BufferedTrafficSource()
        assert not source.poll(time)
        with pytest.raises(RuntimeError):
            source.drain_packet()


class TestSaturatedTraffic:
    def test_always_has_a_packet(self):
        source = SaturatedTraffic().make_source()
        for time in (0.0, 0.1, 5.0):
            assert source.poll(time)
            assert source.drain_packet() == 120

    def test_conservation_holds_trivially(self):
        source = SaturatedTraffic(payload_bytes=50).make_source()
        source.poll(1.0)
        source.drain_packet()
        assert source.bytes_deposited == \
            source.bytes_drained + source.buffered_bytes == 50

    def test_invalid_payload(self):
        with pytest.raises(ValueError):
            SaturatedTraffic(payload_bytes=0)


class TestPoissonTraffic:
    def test_requires_a_generator(self):
        with pytest.raises(ValueError):
            PoissonTraffic().make_source(rng=None)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PoissonTraffic(mean_interval_s=0.0)
        with pytest.raises(ValueError):
            PoissonTraffic(payload_bytes=0)

    def test_mean_rate_is_roughly_respected(self):
        source = PoissonTraffic(mean_interval_s=0.5).make_source(
            rng=np.random.default_rng(42))
        source.advance_to(1000.0)
        arrivals = source.bytes_deposited // 120
        assert arrivals == pytest.approx(2000, rel=0.1)

    def test_no_packet_before_a_full_arrival(self):
        source = PoissonTraffic(mean_interval_s=10.0).make_source(
            rng=np.random.default_rng(3))
        assert not source.poll(0.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           cuts=st.lists(st.floats(min_value=0.0, max_value=50.0),
                         min_size=0, max_size=10))
    def test_seeded_and_chunk_invariant(self, seed, cuts):
        """Same seed => same arrival process, however polling is chunked.

        This is the property the executor-independence of the simulation
        rests on: a source's state at time T depends only on (model, seed,
        T), never on the intermediate poll instants.
        """
        chunked = PoissonTraffic(mean_interval_s=1.0).make_source(
            rng=np.random.default_rng(seed))
        for cut in sorted(cuts):
            chunked.advance_to(cut)
        chunked.advance_to(50.0)
        direct = PoissonTraffic(mean_interval_s=1.0).make_source(
            rng=np.random.default_rng(seed))
        direct.advance_to(50.0)
        assert chunked.bytes_deposited == direct.bytes_deposited
        assert chunked.buffered_bytes == direct.buffered_bytes

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_byte_conservation(self, seed):
        source = PoissonTraffic(mean_interval_s=0.3).make_source(
            rng=np.random.default_rng(seed))
        for step in range(1, 11):
            source.advance_to(step * 1.0)
            if source.packet_available():
                source.drain_packet()
            assert source.bytes_deposited == \
                source.bytes_drained + source.buffered_bytes


class TestBurstyAlarmTraffic:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BurstyAlarmTraffic(mean_event_interval_s=0.0)
        with pytest.raises(ValueError):
            BurstyAlarmTraffic(mean_burst_packets=0.5)
        with pytest.raises(ValueError):
            BurstyAlarmTraffic(payload_bytes=0)

    def test_bursts_deposit_whole_packets(self):
        source = BurstyAlarmTraffic(
            mean_event_interval_s=1.0, mean_burst_packets=4.0).make_source(
                rng=np.random.default_rng(7))
        source.advance_to(100.0)
        assert source.bytes_deposited % 120 == 0
        assert source.bytes_deposited >= 120  # events did fire in 100 s

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           cuts=st.lists(st.floats(min_value=0.0, max_value=200.0),
                         min_size=0, max_size=8))
    def test_seeded_and_chunk_invariant(self, seed, cuts):
        make = BurstyAlarmTraffic(mean_event_interval_s=5.0,
                                  mean_burst_packets=3.0).make_source
        chunked = make(rng=np.random.default_rng(seed))
        for cut in sorted(cuts):
            chunked.advance_to(cut)
        chunked.advance_to(200.0)
        direct = make(rng=np.random.default_rng(seed))
        direct.advance_to(200.0)
        assert chunked.bytes_deposited == direct.bytes_deposited
        assert chunked.buffered_bytes == direct.buffered_bytes


class TestMixedPopulation:
    def mix(self, fraction=0.25):
        return MixedPopulation(components=(
            (1.0 - fraction, PeriodicSensingTraffic()),
            (fraction, BurstyAlarmTraffic())))

    def test_counts_use_largest_remainder(self):
        assert self.mix(0.25).component_counts(8) == [6, 2]
        # 7.5 / 2.5 shares: the leftover node breaks the remainder tie
        # toward the earlier component.
        assert self.mix(0.25).component_counts(10) == [8, 2]
        assert self.mix(0.5).component_counts(7) == [4, 3]
        assert sum(self.mix(1 / 3).component_counts(100)) == 100

    def test_resolution_is_positional_and_deterministic(self):
        mix = self.mix(0.25)
        kinds = [mix.resolve(i, 8).kind for i in range(8)]
        assert kinds == ["periodic"] * 6 + ["bursty"] * 2
        assert kinds == [mix.resolve(i, 8).kind for i in range(8)]

    def test_resolve_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            self.mix().resolve(8, 8)

    def test_make_source_requires_resolution(self):
        with pytest.raises(TypeError):
            self.mix().make_source(rng=np.random.default_rng(0))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixedPopulation(components=((0.5, PeriodicSensingTraffic()),))

    def test_components_must_share_payload(self):
        with pytest.raises(ValueError, match="payload"):
            MixedPopulation(components=(
                (0.5, PeriodicSensingTraffic(payload_bytes=120)),
                (0.5, PoissonTraffic(payload_bytes=60))))

    def test_nested_mixes_rejected(self):
        with pytest.raises(ValueError, match="nested"):
            MixedPopulation(components=((1.0, self.mix()),))

    def test_needs_a_component(self):
        with pytest.raises(ValueError):
            MixedPopulation(components=())

    def test_picklable(self):
        mix = self.mix()
        assert pickle.loads(pickle.dumps(mix)) == mix


class TestBuildTrafficModel:
    @pytest.mark.parametrize("kind", TRAFFIC_MODEL_KINDS)
    def test_every_registered_kind_builds(self, kind):
        model = build_traffic_model(kind, payload_bytes=100)
        assert model.payload_bytes == 100
        if kind != "mixed":
            assert model.kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="Unknown traffic model"):
            build_traffic_model("fractal")

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_traffic_model("poisson", rate_scale=0.0)
        with pytest.raises(ValueError):
            build_traffic_model("mixed", mix_fraction=1.5)

    def test_rate_scale_scales_the_packet_rate(self):
        slow = build_traffic_model("poisson", rate_scale=0.5)
        fast = build_traffic_model("poisson", rate_scale=2.0)
        assert slow.mean_interval_s == pytest.approx(4 * fast.mean_interval_s)

    def test_degenerate_mixes_collapse_to_components(self):
        assert build_traffic_model("mixed", mix_fraction=0.0).kind == "periodic"
        assert build_traffic_model("mixed", mix_fraction=1.0).kind == "bursty"

    def test_mixed_fraction_is_the_bursty_share(self):
        model = build_traffic_model("mixed", mix_fraction=0.25)
        fractions = {component.kind: fraction
                     for fraction, component in model.components}
        assert fractions["bursty"] == pytest.approx(0.25)
        assert fractions["periodic"] == pytest.approx(0.75)


# Beacon grids of the schedule checks: SO never moves a poll instant, but
# the grids cover SO < BO alongside SO = BO.
beacon_orders = st.integers(min_value=0, max_value=8)
order_gaps = st.integers(min_value=0, max_value=3)
horizons = st.integers(min_value=1, max_value=60)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def superframe_order(beacon_order, gap):
    return max(0, beacon_order - gap)


class TestArrivalSchedule:
    """``packet_counts`` drives the batched kernel's queue exactly as lazy
    ``poll``/``drain_packet`` drive the event kernel's, beacon by beacon."""

    @settings(max_examples=40, deadline=None)
    @given(bo=beacon_orders, gap=order_gaps, superframes=horizons,
           sampling_ms=st.floats(min_value=0.5, max_value=40.0),
           initial=st.integers(min_value=0, max_value=360))
    def test_periodic_from_any_initial_buffer(self, check_schedule, bo, gap,
                                              superframes, sampling_ms,
                                              initial):
        traffic = PeriodicSensingTraffic(sampling_interval_s=sampling_ms
                                         * 1e-3)
        check_schedule(lambda: BufferedTrafficSource(
                           traffic=traffic, initial_buffered_bytes=initial),
                       bo, superframe_order(bo, gap), superframes)

    @settings(max_examples=30, deadline=None)
    @given(bo=beacon_orders, gap=order_gaps, superframes=horizons,
           beacons_per_packet=st.integers(min_value=1, max_value=4),
           primed=st.booleans())
    def test_periodic_boundary_samples(self, check_schedule, bo, gap,
                                       superframes, beacons_per_packet,
                                       primed):
        """Packets complete exactly on beacons; the boundary sample counts."""
        so = superframe_order(bo, gap)
        interval = SuperframeConfig(beacon_order=bo,
                                    superframe_order=so).beacon_interval_s
        traffic = PeriodicSensingTraffic(
            sampling_interval_s=interval * beacons_per_packet / 120)

        def make():
            if primed:
                return traffic.make_source()
            return BufferedTrafficSource(traffic=traffic)

        flags = check_schedule(make, bo, so, superframes)
        expected = [(k % beacons_per_packet == 0) if k else primed
                    for k in range(superframes)]
        assert flags == expected

    @settings(max_examples=40, deadline=None)
    @given(bo=beacon_orders, gap=order_gaps, superframes=horizons,
           seed=seeds, mean_s=st.floats(min_value=0.01, max_value=20.0))
    def test_poisson(self, check_schedule, bo, gap, superframes, seed,
                     mean_s):
        traffic = PoissonTraffic(mean_interval_s=mean_s)
        check_schedule(
            lambda: traffic.make_source(rng=np.random.default_rng(seed)),
            bo, superframe_order(bo, gap), superframes)

    @settings(max_examples=40, deadline=None)
    @given(bo=beacon_orders, gap=order_gaps, superframes=horizons,
           seed=seeds, mean_s=st.floats(min_value=0.05, max_value=40.0),
           burst=st.floats(min_value=1.0, max_value=6.0))
    def test_bursty(self, check_schedule, bo, gap, superframes, seed, mean_s,
                    burst):
        traffic = BurstyAlarmTraffic(mean_event_interval_s=mean_s,
                                     mean_burst_packets=burst)
        check_schedule(
            lambda: traffic.make_source(rng=np.random.default_rng(seed)),
            bo, superframe_order(bo, gap), superframes)

    @settings(max_examples=10, deadline=None)
    @given(bo=beacon_orders, gap=order_gaps, superframes=horizons)
    def test_saturated(self, check_schedule, bo, gap, superframes):
        flags = check_schedule(SaturatedTraffic().make_source, bo,
                               superframe_order(bo, gap), superframes)
        assert all(flags)

    @settings(max_examples=30, deadline=None)
    @given(bo=beacon_orders, gap=order_gaps, superframes=horizons,
           seed=seeds, fraction=st.floats(min_value=0.05, max_value=0.95),
           rate_scale=st.floats(min_value=0.25, max_value=4.0),
           position=st.data())
    def test_mixed_population_node(self, check_schedule, bo, gap,
                                   superframes, seed, fraction, rate_scale,
                                   position):
        model = build_traffic_model("mixed", mix_fraction=fraction,
                                    rate_scale=rate_scale)
        index = position.draw(st.integers(min_value=0, max_value=7))
        resolved = model.resolve(index, 8)
        check_schedule(
            lambda: resolved.make_source(rng=np.random.default_rng(seed)),
            bo, superframe_order(bo, gap), superframes)
