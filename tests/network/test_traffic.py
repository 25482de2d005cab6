"""Unit and property tests of the traffic-model subsystem.

Covers the periodic sensing arithmetic, every registered
:class:`repro.network.traffic.TrafficModel` and its arrival schedule
(:meth:`~repro.network.traffic.TrafficModel.packet_counts`): no packet
before ``payload_bytes`` accumulated, boundary samples counted at the
beacon they land on, schedules that a longer horizon only extends, and
lane schedules (:func:`repro.network.routing.lane_arrivals`) that give the
has-packet flags of the scalar polling reference on beacon grids.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.traffic import (TRAFFIC_MODEL_KINDS, BurstyAlarmTraffic,
                                   MixedPopulation, PeriodicSensingTraffic,
                                   PoissonTraffic, SaturatedTraffic,
                                   build_traffic_model)

from repro.mac.superframe import SuperframeConfig


def sample_count(time_s: float, interval_s: float = 8e-3) -> int:
    """Boundary-inclusive sensing events by ``time_s`` (event at t counts)."""
    return int(math.floor(time_s / interval_s + 1e-9))


def counts(model, times, seed=None):
    rng = None if seed is None else np.random.default_rng(seed)
    return model.packet_counts(np.asarray(times, dtype=float), rng).tolist()


class TestPeriodicSensingTraffic:
    def test_paper_defaults(self):
        traffic = PeriodicSensingTraffic()
        assert traffic.data_rate_bps == pytest.approx(1000.0)
        assert traffic.samples_per_packet == 120
        assert traffic.packet_period_s == pytest.approx(0.960)

    def test_buffering_delay_is_half_packet_period(self):
        assert PeriodicSensingTraffic().buffering_delay_s() == pytest.approx(0.48)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PeriodicSensingTraffic(sample_bytes=0)
        with pytest.raises(ValueError):
            PeriodicSensingTraffic(sampling_interval_s=0.0)
        with pytest.raises(ValueError):
            PeriodicSensingTraffic(sample_bytes=7, payload_bytes=120)

    def test_schedule_is_primed_for_steady_state(self):
        """The first beacon already finds one full payload buffered."""
        assert counts(PeriodicSensingTraffic(), [0.0]) == [1]

    def test_no_second_packet_before_a_payload_accumulates(self):
        # 62 one-byte samples by 0.5 s do not make a packet
        assert counts(PeriodicSensingTraffic(), [0.5]) == [1]

    def test_packet_after_960_ms(self):
        assert counts(PeriodicSensingTraffic(), [0.961]) == [2]

    def test_sample_on_superframe_boundary_counts(self):
        """A sensing event landing exactly on a beacon belongs to the
        superframe that starts there: the 120th 8-ms sample lands at
        0.96 s, so a beacon at 0.96 s must count its packet even though
        ``0.96 // 0.008`` is 119 in binary floating point — once."""
        assert counts(PeriodicSensingTraffic(), [0.96, 0.96, 1.92]) == \
            [2, 2, 3]

    def test_long_run_packet_rate(self):
        assert counts(PeriodicSensingTraffic(), [9.601]) == [11]

    @settings(max_examples=30, deadline=None)
    @given(times=st.lists(st.floats(min_value=0.0, max_value=20.0),
                          min_size=1, max_size=20))
    def test_counts_follow_the_sample_count(self, times):
        times = sorted(times)
        assert counts(PeriodicSensingTraffic(), times) == \
            [1 + sample_count(time) // 120 for time in times]

    @settings(max_examples=50, deadline=None)
    @given(time=st.floats(min_value=0.0, max_value=0.959))
    def test_no_second_packet_before_the_payload_period(self, time):
        assert counts(PeriodicSensingTraffic(), [time]) == [1]


class TestSaturatedTraffic:
    def test_one_packet_per_poll(self):
        assert counts(SaturatedTraffic(), [0.0, 0.1, 5.0]) == [1, 2, 3]

    def test_invalid_payload(self):
        with pytest.raises(ValueError):
            SaturatedTraffic(payload_bytes=0)


class TestPoissonTraffic:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PoissonTraffic(mean_interval_s=0.0)
        with pytest.raises(ValueError):
            PoissonTraffic(payload_bytes=0)

    def test_mean_rate_is_roughly_respected(self):
        arrivals, = counts(PoissonTraffic(mean_interval_s=0.5), [1000.0],
                           seed=42)
        assert arrivals == pytest.approx(2000, rel=0.1)

    def test_no_packet_before_a_full_arrival(self):
        assert counts(PoissonTraffic(mean_interval_s=10.0), [0.0],
                      seed=3) == [0]


class TestBurstyAlarmTraffic:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BurstyAlarmTraffic(mean_event_interval_s=0.0)
        with pytest.raises(ValueError):
            BurstyAlarmTraffic(mean_burst_packets=0.5)
        with pytest.raises(ValueError):
            BurstyAlarmTraffic(payload_bytes=0)

    def test_bursts_queue_whole_packets(self):
        times = np.arange(1, 101, dtype=float)
        schedule = counts(BurstyAlarmTraffic(mean_event_interval_s=1.0,
                                             mean_burst_packets=4.0),
                          times, seed=7)
        steps = np.diff(schedule, prepend=0)
        assert schedule[-1] >= 1  # alarms did fire in 100 s
        assert steps.min() >= 0
        assert schedule[-1] > np.count_nonzero(steps)  # some burst > 1


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

    def test_packet_counts_requires_resolution(self):
        with pytest.raises(TypeError):
            self.mix().packet_counts(np.zeros(1), np.random.default_rng(0))

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


# The schedule checks and the prefix check are module-level functions,
# not methods: Hypothesis refuses one method run on several test
# instances, which parametrizing a class method makes.

@settings(max_examples=40, deadline=None)
@given(bo=beacon_orders, gap=order_gaps, superframes=horizons,
       sampling_ms=st.floats(min_value=0.5, max_value=40.0))
def test_schedule_periodic_at_any_sampling_interval(
        check_schedule, lane_shape, bo, gap, superframes, sampling_ms):
    """``lane_arrivals`` drives the kernels' backlog exactly as polling
    the scalar reference does, beacon by beacon, on every lane shape
    (``lane_shape``: star, relay-free tree, routed with replicas lagged
    0 hops or 1-2 hops) — here for periodic sensing at any rate."""
    traffic = PeriodicSensingTraffic(sampling_interval_s=sampling_ms * 1e-3)
    check_schedule(traffic, 0, bo, superframe_order(bo, gap), superframes,
                   lane_shape)


@settings(max_examples=30, deadline=None)
@given(bo=beacon_orders, gap=order_gaps, superframes=horizons,
       beacons_per_packet=st.integers(min_value=1, max_value=4))
def test_schedule_periodic_boundary_samples(
        check_schedule, lane_shape, bo, gap, superframes,
        beacons_per_packet):
    """Packets complete exactly on beacons; the boundary sample counts."""
    so = superframe_order(bo, gap)
    interval = SuperframeConfig(beacon_order=bo,
                                superframe_order=so).beacon_interval_s
    traffic = PeriodicSensingTraffic(
        sampling_interval_s=interval * beacons_per_packet / 120)
    flags = check_schedule(traffic, 0, bo, so, superframes, lane_shape)
    leaf = [k % beacons_per_packet == 0 for k in range(superframes)]
    # nodes 3 and 4 forward nothing on the routed tree
    leaves = (2, 3) if lane_shape.startswith("routed") else (0, 1, 2, 3)
    assert [flags[node] for node in leaves] == [leaf] * len(leaves)


@settings(max_examples=40, deadline=None)
@given(bo=beacon_orders, gap=order_gaps, superframes=horizons, seed=seeds,
       mean_s=st.floats(min_value=0.01, max_value=20.0))
def test_schedule_poisson(check_schedule, lane_shape, bo, gap, superframes,
                          seed, mean_s):
    check_schedule(PoissonTraffic(mean_interval_s=mean_s), seed, bo,
                   superframe_order(bo, gap), superframes, lane_shape)


@settings(max_examples=40, deadline=None)
@given(bo=beacon_orders, gap=order_gaps, superframes=horizons, seed=seeds,
       mean_s=st.floats(min_value=0.05, max_value=40.0),
       burst=st.floats(min_value=1.0, max_value=6.0))
def test_schedule_bursty(check_schedule, lane_shape, bo, gap, superframes,
                         seed, mean_s, burst):
    traffic = BurstyAlarmTraffic(mean_event_interval_s=mean_s,
                                 mean_burst_packets=burst)
    check_schedule(traffic, seed, bo, superframe_order(bo, gap),
                   superframes, lane_shape)


@settings(max_examples=10, deadline=None)
@given(bo=beacon_orders, gap=order_gaps, superframes=horizons)
def test_schedule_saturated(check_schedule, lane_shape, bo, gap,
                            superframes):
    flags = check_schedule(SaturatedTraffic(), 0, bo,
                           superframe_order(bo, gap), superframes,
                           lane_shape)
    assert all(all(node) for node in flags)


@settings(max_examples=30, deadline=None)
@given(bo=beacon_orders, gap=order_gaps, superframes=horizons, seed=seeds,
       fraction=st.floats(min_value=0.05, max_value=0.95),
       rate_scale=st.floats(min_value=0.25, max_value=4.0))
def test_schedule_mixed_population(check_schedule, lane_shape, bo, gap,
                                   superframes, seed, fraction, rate_scale):
    model = build_traffic_model("mixed", mix_fraction=fraction,
                                rate_scale=rate_scale)
    check_schedule(model, seed, bo, superframe_order(bo, gap), superframes,
                   lane_shape)


@pytest.mark.parametrize("kind", [kind for kind in TRAFFIC_MODEL_KINDS
                                  if kind != "mixed"])
@settings(max_examples=40, deadline=None)
@given(seed=seeds, rate_scale=st.floats(min_value=0.25, max_value=4.0),
       times=st.lists(st.floats(min_value=0.0, max_value=50.0),
                      min_size=1, max_size=30),
       cut=st.integers(min_value=1, max_value=30))
def test_a_longer_horizon_extends_the_schedule(kind, seed, rate_scale,
                                               times, cut):
    """A schedule up to time T depends only on (model, seed, T): a longer
    horizon extends it and never rewrites its prefix, so a lane's
    arrivals do not depend on how long the run is."""
    model = build_traffic_model(kind, rate_scale=rate_scale)
    times = sorted(times)
    full = counts(model, times, seed)
    assert counts(model, times[:cut], seed) == full[:cut]
