"""Tests of the declarative scenario specs and the multi-channel fan-out."""

import pytest

from repro.network.simulate import (ChannelSimTask, aggregate_channel_rows,
                                    simulate_channel, simulate_network)
from repro.network.spec import (CASE_STUDY_SPEC, ScenarioSpec,
                                adaptive_tx_levels)
from repro.phy.bands import Band
from repro.runner.executor import ProcessExecutor


class TestScenarioSpec:
    def test_case_study_defaults_match_paper(self):
        spec = CASE_STUDY_SPEC
        assert spec.total_nodes == 1600
        assert len(spec.channels) == 16
        assert spec.beacon_order == 6
        assert spec.payload_bytes == 120
        config = spec.superframe_config()
        assert config.superframe_order == 6
        assert config.beacon_interval_s == pytest.approx(0.98304)

    def test_csma_conventions(self):
        assert ScenarioSpec(csma_convention="paper") \
            .csma_parameters().max_csma_backoffs == 2
        assert ScenarioSpec(csma_convention="standard") \
            .csma_parameters().max_csma_backoffs == 4

    def test_battery_life_extension_wiring(self):
        params = ScenarioSpec(battery_life_extension=True).csma_parameters()
        assert params.battery_life_extension
        assert params.initial_backoff_exponent() == 2

    def test_num_channels_subsets_the_band(self):
        spec = ScenarioSpec(total_nodes=300, num_channels=3)
        assert spec.channels == [11, 12, 13]

    def test_build_produces_scenario(self):
        spec = ScenarioSpec(total_nodes=40, num_channels=2, beacon_order=3)
        scenario = spec.build_seeded(0)
        assert len(scenario.build_nodes()) == 40
        assert scenario.tx_power_dbm == spec.tx_power_dbm

    @pytest.mark.parametrize("kwargs", [
        {"total_nodes": 0},
        {"tx_policy": "telepathy"},
        {"csma_convention": "loose"},
        {"backend": "fpga"},
        {"superframes_hint": 0},
        {"num_channels": 99},
        {"path_loss_low_db": 80.0, "path_loss_high_db": 60.0},
        {"backend": "vectorized"},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(**kwargs)

    def test_spec_is_picklable(self):
        import pickle
        spec = ScenarioSpec(total_nodes=100, band=Band.BAND_2450MHZ)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestScenarioSpecTraffic:
    def test_default_is_the_saturated_assumption(self):
        spec = ScenarioSpec(total_nodes=32, num_channels=2)
        assert spec.traffic is None
        channel = spec.build_seeded(0).channel_scenario(11, max_nodes=2)
        model = channel.traffic_model()
        assert model.kind == "saturated"
        assert model.payload_bytes == spec.payload_bytes

    def test_payload_mismatch_rejected_at_build_time(self):
        from repro.network.traffic import PoissonTraffic

        with pytest.raises(ValueError, match="payload"):
            ScenarioSpec(payload_bytes=120,
                         traffic=PoissonTraffic(payload_bytes=60))

    def test_sensing_traffic_carries_the_spec_shape(self):
        spec = ScenarioSpec(payload_bytes=60, sample_bytes=2,
                            sampling_interval_s=4e-3)
        sensing = spec.sensing_traffic()
        assert sensing.payload_bytes == 60
        assert sensing.sample_bytes == 2
        assert sensing.packet_period_s == pytest.approx(0.12)

    def test_traffic_reaches_the_built_scenario(self):
        from repro.network.traffic import PoissonTraffic

        traffic = PoissonTraffic(mean_interval_s=2.0, payload_bytes=120)
        scenario = ScenarioSpec(total_nodes=20, num_channels=2,
                                traffic=traffic).build_seeded(0)
        assert scenario.traffic_model is traffic

    def test_traffic_spec_is_picklable(self):
        import pickle

        from repro.network.traffic import build_traffic_model

        spec = ScenarioSpec(traffic=build_traffic_model("mixed"))
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_traffic_changes_simulated_load(self):
        """A sparse poisson workload must attempt fewer packets than the
        saturated default on the same scaled-down network."""
        from repro.network.traffic import PoissonTraffic

        base = dict(total_nodes=16, num_channels=2, beacon_order=3,
                    tx_policy="fixed", superframes_hint=6)
        saturated = ScenarioSpec(**base)
        sparse = ScenarioSpec(
            traffic=PoissonTraffic(mean_interval_s=1.0), **base)
        rows_sat = simulate_network(saturated, seed=3)
        rows_sparse = simulate_network(sparse, seed=3)
        attempted_sat = sum(r["packets_attempted"] for r in rows_sat)
        attempted_sparse = sum(r["packets_attempted"] for r in rows_sparse)
        assert 0 < attempted_sparse < attempted_sat


class TestAdaptiveTxLevels:
    def test_levels_monotone_in_path_loss(self):
        levels = adaptive_tx_levels([55.0, 70.0, 85.0, 95.0], 133)
        assert levels == sorted(levels)
        assert all(-25.0 <= level <= 0.0 for level in levels)

    def test_low_loss_gets_low_level_high_loss_gets_max(self):
        low, high = adaptive_tx_levels([55.0, 200.0], 133)
        assert low == -25.0
        assert high == 0.0


class TestSimulateNetwork:
    @pytest.fixture(scope="class")
    def spec(self):
        return ScenarioSpec(name="mini", total_nodes=40, num_channels=2,
                            beacon_order=3, superframes_hint=3)

    def test_rows_per_channel(self, spec):
        rows = simulate_network(spec, superframes=3, seed=5,
                                max_nodes_per_channel=8)
        assert [row["channel"] for row in rows] == spec.channels
        for row in rows:
            assert row["nodes"] == 8
            assert row["packets_attempted"] > 0
            assert 0.0 <= row["failure_probability"] <= 1.0

    def test_serial_and_parallel_rows_identical(self, spec):
        """The event backend is the one a process pool fans out (the
        batched kernel ignores the executor)."""
        serial = simulate_network(spec, superframes=3, seed=5,
                                  max_nodes_per_channel=6, backend="event")
        parallel = simulate_network(spec, superframes=3, seed=5,
                                    max_nodes_per_channel=6, backend="event",
                                    executor=ProcessExecutor(jobs=2))
        assert serial == parallel

    def test_backends_agree_on_counts(self, spec):
        fast = simulate_network(spec, superframes=3, seed=8,
                                max_nodes_per_channel=6)
        event = simulate_network(spec, superframes=3, seed=8,
                                 max_nodes_per_channel=6, backend="event")
        for fast_row, event_row in zip(fast, event):
            assert fast_row["packets_attempted"] == event_row["packets_attempted"]
            assert fast_row["packets_delivered"] == event_row["packets_delivered"]
            assert fast_row["channel_access_failures"] == \
                event_row["channel_access_failures"]

    def test_single_channel_task_roundtrip(self, spec):
        task = ChannelSimTask(spec=spec, channel=11, placement_seed=5,
                              sim_seed=42, superframes=2, max_nodes=5)
        row = simulate_channel(task)
        assert row["channel"] == 11
        assert row["nodes"] == 5

    def test_superframe_order_is_honoured(self):
        """Regression: the fan-out used to rebuild the superframe with
        SO = BO, silently dropping the spec's inactive portion."""
        active = ScenarioSpec(total_nodes=12, num_channels=1, beacon_order=4,
                              superframes_hint=4)
        duty_cycled = ScenarioSpec(total_nodes=12, num_channels=1,
                                   beacon_order=4, superframe_order=2,
                                   superframes_hint=4)
        full = simulate_network(active, superframes=4, seed=3)[0]
        short = simulate_network(duty_cycled, superframes=4, seed=3)[0]
        # A quarter-length active portion means noticeably less power (the
        # radio sleeps through the inactive period) and transactions that
        # must complete within the much shorter CAP.
        assert short["mean_power_uw"] < 0.95 * full["mean_power_uw"]
        assert short["mean_delivery_delay_s"] < full["mean_delivery_delay_s"]

    def test_seed_none_still_shares_one_population(self, spec):
        """Regression: seed=None used to ship placement_seed=None to every
        task, giving each channel its own random node placement."""
        from repro.network.simulate import build_channel_tasks

        tasks = build_channel_tasks(spec, superframes=2, seed=None)
        placements = {task.placement_seed for task in tasks}
        assert len(placements) == 1
        assert None not in placements
        rows = simulate_network(spec, superframes=2, seed=None,
                                max_nodes_per_channel=4)
        assert [row["channel"] for row in rows] == spec.channels


class TestAggregation:
    def test_nan_safe_delay_aggregation(self):
        rows = [
            {"channel": 11, "nodes": 10, "packets_attempted": 20,
             "packets_delivered": 20, "channel_access_failures": 0,
             "collisions": 0, "failure_probability": 0.0,
             "mean_power_uw": 200.0, "mean_delivery_delay_s": 0.4,
             "energy_by_phase_j": {"transmit": 1.0}},
            {"channel": 12, "nodes": 10, "packets_attempted": 20,
             "packets_delivered": 0, "channel_access_failures": 20,
             "collisions": 0, "failure_probability": 1.0,
             "mean_power_uw": 100.0, "mean_delivery_delay_s": None,
             "energy_by_phase_j": {"transmit": 0.5, "sleep": 0.1}},
        ]
        aggregate = aggregate_channel_rows(rows)
        assert aggregate["packets_attempted"] == 40
        assert aggregate["packets_delivered"] == 20
        assert aggregate["failure_probability"] == pytest.approx(0.5)
        # The zero-delivery channel is skipped, not propagated as NaN.
        assert aggregate["mean_delivery_delay_s"] == pytest.approx(0.4)
        assert aggregate["mean_power_uw"] == pytest.approx(150.0)
        assert aggregate["energy_by_phase_j"] == {"transmit": 1.5,
                                                  "sleep": 0.1}

    def test_all_channels_dry_reports_none(self):
        rows = [{"channel": 11, "nodes": 4, "packets_attempted": 8,
                 "packets_delivered": 0, "channel_access_failures": 8,
                 "collisions": 0, "failure_probability": 1.0,
                 "mean_power_uw": 90.0, "mean_delivery_delay_s": None,
                 "energy_by_phase_j": {}}]
        aggregate = aggregate_channel_rows(rows)
        assert aggregate["mean_delivery_delay_s"] is None
        assert aggregate["failure_probability"] == 1.0

    def test_empty_row_list_aggregates_to_neutral_totals(self):
        aggregate = aggregate_channel_rows([])
        assert aggregate == {
            "channels": 0, "nodes": 0, "packets_attempted": 0,
            "packets_delivered": 0, "channel_access_failures": 0,
            "collisions": 0, "failure_probability": 0.0,
            "mean_power_uw": 0.0, "mean_delivery_delay_s": None,
            "energy_by_phase_j": {},
        }

    def test_all_zero_delivery_network_multi_channel(self):
        """A whole network that never delivers: every delay is None, the
        power mean must still weight by nodes, and the failure probability
        is exactly 1."""
        rows = [
            {"channel": 11, "nodes": 10, "packets_attempted": 30,
             "packets_delivered": 0, "channel_access_failures": 25,
             "collisions": 5, "failure_probability": 1.0,
             "mean_power_uw": 120.0, "mean_delivery_delay_s": None,
             "energy_by_phase_j": {"contention": 0.2}},
            {"channel": 12, "nodes": 30, "packets_attempted": 90,
             "packets_delivered": 0, "channel_access_failures": 90,
             "collisions": 0, "failure_probability": 1.0,
             "mean_power_uw": 200.0, "mean_delivery_delay_s": None,
             "energy_by_phase_j": {"contention": 0.6}},
        ]
        aggregate = aggregate_channel_rows(rows)
        assert aggregate["packets_attempted"] == 120
        assert aggregate["packets_delivered"] == 0
        assert aggregate["failure_probability"] == 1.0
        assert aggregate["mean_delivery_delay_s"] is None
        assert aggregate["mean_power_uw"] == pytest.approx(180.0)
        assert aggregate["energy_by_phase_j"] == {
            "contention": pytest.approx(0.8)}

    def test_delivered_but_none_delay_rows_are_skipped(self):
        """Defensive: a row claiming deliveries but carrying no delay (a
        backend that cannot measure it) must not poison the mean."""
        rows = [
            {"channel": 11, "nodes": 5, "packets_attempted": 10,
             "packets_delivered": 10, "channel_access_failures": 0,
             "collisions": 0, "failure_probability": 0.0,
             "mean_power_uw": 100.0, "mean_delivery_delay_s": None,
             "energy_by_phase_j": {}},
            {"channel": 12, "nodes": 5, "packets_attempted": 10,
             "packets_delivered": 5, "channel_access_failures": 5,
             "collisions": 0, "failure_probability": 0.5,
             "mean_power_uw": 100.0, "mean_delivery_delay_s": 0.25,
             "energy_by_phase_j": {}},
        ]
        aggregate = aggregate_channel_rows(rows)
        assert aggregate["mean_delivery_delay_s"] == pytest.approx(0.25)


class TestScenarioSpecTopology:
    def test_multihop_routing_needs_a_geometric_topology(self):
        from repro.network.routing import GradientRouting
        from repro.network.topology import StarTopologyModel

        with pytest.raises(ValueError, match="geometric topology"):
            ScenarioSpec(routing=GradientRouting(max_hops=2))
        with pytest.raises(ValueError, match="geometric topology"):
            ScenarioSpec(topology=StarTopologyModel(),
                         routing=GradientRouting(max_hops=2))

    def test_single_hop_routing_is_valid_anywhere(self):
        from repro.network.routing import GradientRouting
        from repro.network.topology import GridTopologyModel

        assert ScenarioSpec(routing=GradientRouting(max_hops=1)) \
            .routing.max_hops == 1
        assert ScenarioSpec(topology=GridTopologyModel(),
                            routing=GradientRouting(max_hops=3)) \
            .topology.kind == "grid"

    def test_topology_and_routing_reach_the_built_scenario(self):
        from repro.network.routing import GradientRouting
        from repro.network.topology import GridTopologyModel

        spec = ScenarioSpec(total_nodes=12, num_channels=2,
                            topology=GridTopologyModel(),
                            routing=GradientRouting(max_hops=2))
        scenario = spec.build_seeded(5)
        assert scenario.topology_model == spec.topology
        assert scenario.routing_model == spec.routing
