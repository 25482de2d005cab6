"""Cross-validation of the batched lockstep kernel against the event kernel.

The batched backend promises *identical* delivery / failure / attempt
counts for the same scenario and master seed (it consumes the same named
random streams in the same order), and float-precision agreement on powers,
delays and the per-phase energy split.  These tests pin that contract on
scenarios exercising the interesting regimes: light load (everything
delivered), heavy load (busy CCAs, channel access failures, retries) and
the full 100-node case-study channel.  Where the horizon cuts activity the
reference is the scalar oracle of ``test_lane_oracle.py`` instead.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from repro.mac.csma import CsmaParameters
from repro.mac.superframe import SuperframeConfig
from repro.mac.vectorized import BatchedChannelSimulator, ChannelLane
from repro.network.node import SensorNode
from repro.network.scenario import EventChannelSimulator
from repro.network.simulate import simulate_network
from repro.network.spec import ScenarioSpec
from repro.network.traffic import build_traffic_model


def run_both(lanes, superframes, **shared):
    """The one-lane summary of each kernel: the same lane list, built
    once, goes to the event kernel and to the batched kernel."""
    event, = EventChannelSimulator(lanes, **shared).run(superframes)
    fast, = BatchedChannelSimulator(lanes, **shared).run(superframes)
    return event, fast


def lanes_of(nodes, seed):
    """One lane of ``nodes``, every node at 0 dBm."""
    return [ChannelLane(nodes=nodes, tx_levels_dbm=[0.0] * len(nodes),
                        seed=seed)]


def spec_lanes(spec, placement_seed, lane_seed, max_nodes=None):
    """Channel 11 of ``spec``'s population at ``placement_seed`` as one
    lane, its first ``max_nodes`` nodes at 0 dBm."""
    return lanes_of(spec.population(placement_seed)[11][0][:max_nodes],
                    lane_seed)


def uniform_nodes(count, path_loss_db=70.0):
    return [SensorNode(node_id=i, channel=11, path_loss_db=path_loss_db)
            for i in range(1, count + 1)]


def assert_summaries_match(event, fast):
    assert fast.packets_attempted == event.packets_attempted
    assert fast.packets_delivered == event.packets_delivered
    assert fast.channel_access_failures == event.channel_access_failures
    assert fast.collisions == event.collisions
    assert fast.node_count == event.node_count
    assert fast.superframes == event.superframes
    assert fast.simulated_time_s == pytest.approx(event.simulated_time_s)
    assert fast.mean_node_power_w == pytest.approx(event.mean_node_power_w,
                                                   rel=1e-9)
    if event.mean_delivery_delay_s is None:
        assert fast.mean_delivery_delay_s is None
    else:
        assert fast.mean_delivery_delay_s == pytest.approx(
            event.mean_delivery_delay_s, rel=1e-9)
    assert set(fast.energy_by_phase_j) == set(event.energy_by_phase_j)
    for phase, energy in event.energy_by_phase_j.items():
        assert fast.energy_by_phase_j[phase] == pytest.approx(energy,
                                                              rel=1e-9), phase


class TestCrossValidation:
    @pytest.mark.parametrize("seed", [0, 4, 17])
    def test_light_load_channel_matches_event_kernel(self, seed):
        spec = ScenarioSpec(total_nodes=64, num_channels=2, beacon_order=3)
        assert_summaries_match(*run_both(
            spec_lanes(spec, seed, seed + 7, max_nodes=8), 6,
            config=spec.superframe_config()))

    @pytest.mark.parametrize("seed", [2, 9])
    def test_saturated_channel_matches_event_kernel(self, seed):
        """Heavy load: busy CCAs, access failures and retries must agree."""
        spec = ScenarioSpec(total_nodes=64, num_channels=2, beacon_order=2)
        event, fast = run_both(spec_lanes(spec, seed, seed, max_nodes=16), 8,
                               config=spec.superframe_config())
        assert event.channel_access_failures > 0  # the regime is exercised
        assert_summaries_match(event, fast)

    def test_full_case_study_channel_matches_event_kernel(self):
        spec = ScenarioSpec()
        event, fast = run_both(spec_lanes(spec, 1, 3), 3,
                               config=spec.superframe_config())
        assert event.node_count == 100
        assert_summaries_match(event, fast)

    def test_lossy_links_match_event_kernel(self):
        """Corruption draws (coordinator stream) consumed identically."""
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        event, fast = run_both(lanes_of(uniform_nodes(6, 93.0), 5), 10,
                               config=config, payload_bytes=100)
        assert event.packets_delivered < event.packets_attempted  # losses
        assert_summaries_match(event, fast)

    def test_standard_csma_convention_matches_event_kernel(self):
        params = CsmaParameters.from_mac_constants(paper_convention=False)
        config = SuperframeConfig(beacon_order=2, superframe_order=2)
        assert_summaries_match(*run_both(
            lanes_of(uniform_nodes(12), 3), 6, config=config,
            payload_bytes=120, csma_params=params))

    def test_battery_life_extension_matches_event_kernel(self):
        params = CsmaParameters.from_mac_constants(battery_life_extension=True)
        config = SuperframeConfig(beacon_order=2, superframe_order=2)
        assert_summaries_match(*run_both(
            lanes_of(uniform_nodes(12), 6), 6, config=config,
            payload_bytes=120, csma_params=params))

    def test_inactive_superframe_portion_matches_event_kernel(self):
        """SO < BO: devices sleep through the inactive portion."""
        config = SuperframeConfig(beacon_order=4, superframe_order=2)
        assert_summaries_match(*run_both(
            lanes_of(uniform_nodes(6), 8), 5, config=config,
            payload_bytes=100))


    def test_a_custom_radio_profile_reaches_both_kernels(self):
        """``profile`` is part of the kernels' shared input: doubling the
        receive power raises both kernels' power alike."""
        from dataclasses import replace

        from repro.radio.power_profile import CC2420_PROFILE
        from repro.radio.states import RadioState

        powers = dict(CC2420_PROFILE.state_power_w)
        powers[RadioState.RX] *= 2.0
        profile = replace(CC2420_PROFILE, state_power_w=powers)
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        lanes = lanes_of(uniform_nodes(6), 4)
        event, fast = run_both(lanes, 4, config=config, payload_bytes=100,
                               profile=profile)
        assert_summaries_match(event, fast)
        default, _ = run_both(lanes, 4, config=config, payload_bytes=100)
        assert event.mean_node_power_w > default.mean_node_power_w


class TestTrafficModelCrossValidation:
    """Same-seed kernel agreement for every registered traffic model.

    The equivalence contract must survive the traffic axis: both kernels
    read each node's ``traffic[<id>]`` schedule at identical beacon
    instants, so delivery / failure / attempt counts stay *identical* and
    energies agree to float precision for every model x superframe
    structure.
    """

    MODELS = ("saturated", "periodic", "poisson", "bursty", "mixed")
    #: BO/SO defaults (full-active) and a duty-cycled CAP (SO < BO).
    STRUCTURES = (
        pytest.param(SuperframeConfig(beacon_order=3, superframe_order=3),
                     id="full-active"),
        pytest.param(SuperframeConfig(beacon_order=4, superframe_order=2),
                     id="duty-cycled"),
    )

    @pytest.mark.parametrize("config", STRUCTURES)
    @pytest.mark.parametrize("model", MODELS)
    def test_kernels_agree_for_every_model(self, model, config):
        traffic = build_traffic_model(model, payload_bytes=100)
        assert_summaries_match(*run_both(
            lanes_of(uniform_nodes(10), 5), 8, config=config,
            payload_bytes=100, traffic=traffic))

    def test_stochastic_models_exercise_idle_superframes(self):
        """The poisson regime must actually skip superframes (otherwise the
        matrix above degenerates into five copies of the saturated case)."""
        traffic = build_traffic_model("poisson", payload_bytes=100,
                                      rate_scale=0.5)
        nodes = uniform_nodes(8)
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        event, fast = run_both(lanes_of(nodes, 5), 8, config=config,
                               payload_bytes=100, traffic=traffic)
        assert event.packets_attempted < 8 * len(nodes)
        assert event.packets_attempted > 0
        assert_summaries_match(event, fast)

    def test_scenario_spec_traffic_threads_through_both_kernels(self):
        """Traffic configured on a ScenarioSpec reaches both backends."""
        traffic = build_traffic_model("mixed", payload_bytes=120)
        spec = ScenarioSpec(total_nodes=16, num_channels=2, beacon_order=3,
                            traffic=traffic, tx_policy="fixed")
        rows = {backend: simulate_network(spec, superframes=6, seed=2,
                                          backend=backend)
                for backend in ("batched", "event")}
        TestBatchedNetworkEquivalenceMatrix.assert_rows_match(
            rows["batched"], rows["event"], "mixed traffic from the spec")
        assert sum(row["packets_attempted"] for row in rows["event"]) > 0


class TestVectorizedProperties:
    @pytest.mark.parametrize("backend", ["gpu", "vectorized"])
    def test_unknown_backend_rejected(self, backend):
        spec = ScenarioSpec(total_nodes=2, num_channels=1, beacon_order=3)
        with pytest.raises(ValueError, match="backend"):
            simulate_network(spec, superframes=2, backend=backend)

    def test_superframes_must_be_positive(self):
        nodes = [SensorNode(node_id=1, channel=11, path_loss_db=65.0)]
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        simulator = BatchedChannelSimulator(
            [ChannelLane(nodes=nodes, tx_levels_dbm=[0.0], seed=0)], config)
        with pytest.raises(ValueError):
            simulator.run(superframes=0)

    def test_zero_delivery_channel_reports_none_delay(self):
        """Out-of-range nodes deliver nothing; the delay must be None."""
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        event, fast = run_both(lanes_of(uniform_nodes(3, 120.0), 2), 4,
                               config=config, payload_bytes=60)
        assert event.packets_delivered == 0
        assert event.mean_delivery_delay_s is None
        assert_summaries_match(event, fast)
        assert fast.failure_probability == 1.0


class TestBatchedNetworkEquivalenceMatrix:
    """Same-seed equivalence matrix of the batched lockstep backend.

    One :class:`BatchedChannelSimulator` call spans every (channel,
    replication) lane of a network run; it must reproduce the per-channel
    event kernel fan-out *row for row* — identical integer counts,
    float-precision powers, delays and energy splits.  The matrix pins that contract over
    every registered traffic model, both superframe structures
    (full-active and duty-cycled SO < BO) and the 1 / 3 / 16 channel
    fan-outs the case study scales across.
    """

    MODELS = ("saturated", "periodic", "poisson", "bursty", "mixed")
    STRUCTURES = (pytest.param(3, 3, id="full-active"),
                  pytest.param(4, 2, id="duty-cycled"))
    CHANNEL_COUNTS = (1, 3, 16)

    COUNT_KEYS = ("channel", "nodes", "superframes", "packets_attempted",
                  "packets_delivered", "channel_access_failures",
                  "collisions")
    FLOAT_KEYS = ("failure_probability", "mean_power_uw",
                  "mean_delivery_delay_s")

    @classmethod
    def assert_rows_match(cls, rows, reference, label):
        assert len(rows) == len(reference), label
        for index, (row, ref) in enumerate(zip(rows, reference)):
            where = f"{label}, row {index}"
            for key in cls.COUNT_KEYS:
                assert row[key] == ref[key], f"{where}: {key}"
            for key in cls.FLOAT_KEYS:
                if ref[key] is None:
                    assert row[key] is None, f"{where}: {key}"
                else:
                    assert row[key] == pytest.approx(ref[key], rel=1e-9), \
                        f"{where}: {key}"
            for phase, energy in ref["energy_by_phase_j"].items():
                assert row["energy_by_phase_j"][phase] == pytest.approx(
                    energy, rel=1e-9), f"{where}: energy {phase}"

    @pytest.mark.parametrize("channels", CHANNEL_COUNTS)
    @pytest.mark.parametrize("beacon_order,superframe_order", STRUCTURES)
    @pytest.mark.parametrize("model", MODELS)
    def test_batched_matches_per_channel_kernels(self, model, beacon_order,
                                                 superframe_order, channels):
        spec = ScenarioSpec(total_nodes=3 * channels, num_channels=channels,
                            beacon_order=beacon_order,
                            superframe_order=superframe_order,
                            traffic=build_traffic_model(model,
                                                        payload_bytes=120))

        def run(backend):
            return simulate_network(spec, superframes=4, seed=5,
                                    backend=backend)

        config = f"{model}/BO{beacon_order}SO{superframe_order}/{channels}ch"
        self.assert_rows_match(run("batched"), run("event"),
                               f"batched vs event ({config})")


class TestBatchedLaneIndependence:
    """A lane's results must not depend on which other lanes share the batch.

    The lockstep kernel advances every lane through shared numpy passes;
    per-lane random streams, counters and timelines must still be exactly
    what a solo run of that lane produces, whatever the batch shape.
    """

    def build_lane(self, seed, nodes=4, path_loss_db=70.0):
        return lanes_of(uniform_nodes(nodes, path_loss_db), seed)[0]

    def run_batch(self, lanes, superframes=4):
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        simulator = BatchedChannelSimulator(lanes, config=config,
                                            payload_bytes=100)
        return simulator.run(superframes=superframes)

    def assert_same_summary(self, left, right):
        assert left.packets_attempted == right.packets_attempted
        assert left.packets_delivered == right.packets_delivered
        assert left.channel_access_failures == right.channel_access_failures
        assert left.collisions == right.collisions
        assert left.mean_node_power_w == pytest.approx(
            right.mean_node_power_w, rel=1e-9)

    @pytest.mark.parametrize("batch_seeds", [(3,), (3, 4), (4, 3, 5, 6)])
    def test_lane_summary_invariant_under_batch_shape(self, batch_seeds):
        solo = self.run_batch([self.build_lane(3)])[0]
        lanes = [self.build_lane(seed) for seed in batch_seeds]
        batch = self.run_batch(lanes)
        position = batch_seeds.index(3)
        self.assert_same_summary(batch[position], solo)

    def test_mixed_population_sizes_in_one_batch(self):
        """Lanes of different node counts coexist in one lockstep call."""
        lanes = [self.build_lane(7, nodes=2), self.build_lane(8, nodes=6)]
        batch = self.run_batch(lanes)
        for position, lane in enumerate(lanes):
            solo = self.run_batch([self.build_lane(lane.seed,
                                                   nodes=len(lane.nodes))])
            self.assert_same_summary(batch[position], solo[0])

    def test_batch_needs_at_least_one_lane(self):
        with pytest.raises(ValueError, match="at least one lane"):
            self.run_batch([])

    def test_lane_node_and_level_counts_must_align(self):
        lane = self.build_lane(1)
        bad = ChannelLane(nodes=lane.nodes, tx_levels_dbm=[0.0], seed=1)
        with pytest.raises(ValueError, match="transmit level"):
            self.run_batch([bad])


class TestCallScopedState:
    """The kernel's state belongs to one call, so long-lived processes
    (``Session``, ``repro serve``) do not grow with every new seed."""

    def test_fresh_seeds_retain_no_memory(self):
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        nodes = uniform_nodes(40)
        traffic = build_traffic_model("poisson", payload_bytes=100)

        def run(first_seed):
            lanes = [ChannelLane(nodes=nodes, tx_levels_dbm=[0.0] * 40,
                                 seed=first_seed + lane)
                     for lane in range(4)]
            BatchedChannelSimulator(lanes, config=config, payload_bytes=100,
                                    traffic=traffic).run(superframes=4)

        run(1000)  # warm-up: imports, the raw-stream probe, lazy caches
        tracemalloc.start()
        try:
            for first_seed in (2000, 3000, 4000):
                run(first_seed)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024


class TestRawStreamProbe:
    """The batched kernel replays raw ``uint64`` streams through numpy's
    own draw transformations; the probe checks those identities against
    the running numpy, and a failed probe must stop the kernel loudly."""

    def test_probe_failure_stops_the_batched_kernel(self, monkeypatch):
        """A numpy whose raw streams do not replay bit-for-bit must raise
        rather than drift silently; the event kernel still runs."""
        import repro.mac.vectorized as vectorized

        monkeypatch.setattr(vectorized, "_raw_compat", False)
        lanes = lanes_of(uniform_nodes(16), 5)
        config = SuperframeConfig(beacon_order=2, superframe_order=2)
        with pytest.raises(RuntimeError, match=np.__version__) as error:
            BatchedChannelSimulator(lanes, config, payload_bytes=100) \
                .run(superframes=4)
        assert 'backend="event"' in str(error.value)
        event, = EventChannelSimulator(lanes, config, payload_bytes=100) \
            .run(superframes=4)
        assert event.packets_attempted > 0

    def test_probe_detects_mismatched_integer_streams(self):
        from repro.mac.vectorized import _probe_matches

        real = np.random.default_rng(np.random.SeedSequence(1))
        raw = np.random.default_rng(np.random.SeedSequence(2)).bit_generator
        assert not _probe_matches(real, raw)

    def test_probe_detects_a_drifting_double_path(self):
        """Streams that agree on integers and uniforms but not on
        ``random()`` must still fail the probe."""
        from repro.mac.vectorized import _probe_matches

        class CorruptRandom:
            def __init__(self, generator):
                self._generator = generator

            def integers(self, *args, **kwargs):
                return self._generator.integers(*args, **kwargs)

            def uniform(self, *args, **kwargs):
                return self._generator.uniform(*args, **kwargs)

            def random(self):
                return -1.0

        seed = np.random.SeedSequence(3)
        real = CorruptRandom(np.random.default_rng(seed))
        raw = np.random.default_rng(np.random.SeedSequence(3)).bit_generator
        assert not _probe_matches(real, raw)

    def test_this_numpy_passes_the_probe(self):
        from repro.mac.vectorized import raw_streams_compatible

        assert raw_streams_compatible()


class TestTrendsAtScale:
    """The batched backend must reproduce the analytical model's trends
    when the channel is scaled from validation size to the paper's 100
    nodes — failure probability grows with load, power stays in the
    sub-milliwatt regime the model predicts."""

    @pytest.fixture(scope="class")
    def summaries(self):
        spec = ScenarioSpec()
        out = {}
        for nodes in (20, 100):
            out[nodes], = BatchedChannelSimulator(
                spec_lanes(spec, 1, 6, max_nodes=nodes),
                spec.superframe_config()).run(superframes=12)
        return out

    def test_failure_probability_grows_with_population(self, summaries):
        assert summaries[100].failure_probability > \
            summaries[20].failure_probability

    def test_full_channel_failure_rate_near_paper_regime(self, summaries):
        # The paper's analytical figure is 16 % at load 0.42; the packet
        # simulation of the full channel must land in the same regime.
        assert 0.05 < summaries[100].failure_probability < 0.40

    def test_power_in_model_regime(self, summaries):
        # Section 5 reports ~211 uW with link adaptation; at fixed 0 dBm the
        # simulated value must stay in the same order of magnitude.
        for summary in summaries.values():
            assert 50e-6 < summary.mean_node_power_w < 1e-3

    def test_delay_dominated_by_stagger_within_superframe(self, summaries):
        interval = ScenarioSpec().superframe_config().beacon_interval_s
        for summary in summaries.values():
            assert 0.0 < summary.mean_delivery_delay_s < interval
