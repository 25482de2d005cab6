"""Integration tests of the packet-level MAC entities (device + coordinator)."""

from functools import lru_cache

import pytest

from repro.channel.awgn import AwgnLink
from repro.mac.constants import (MAC_2450MHZ, PHASE_ACK, PHASE_BEACON,
                                 PHASE_CONTENTION, PHASE_SLEEP,
                                 PHASE_TRANSMIT)
from repro.mac.coordinator import Coordinator
from repro.mac.csma import CsmaParameters
from repro.mac.device import Device
from repro.mac.frames import AckFrame
from repro.mac.medium import Medium
from repro.mac.superframe import SuperframeConfig
from repro.mac.vectorized import _beacon_airtime_s
from repro.network.traffic import (BufferedTrafficSource,
                                   PeriodicSensingTraffic, PoissonTraffic)
from repro.radio.states import RadioState
from repro.sim.engine import Environment
from repro.sim.random import RandomStreams


def build_network(num_nodes=3, beacon_order=2, payload_bytes=50,
                  path_loss_db=60.0, seed=0, links=True,
                  superframe_order=None, traffic=None):
    """Assemble a small star network ready to run.

    ``superframe_order`` defaults to ``beacon_order`` (no inactive
    portion); ``traffic`` is a :class:`repro.network.traffic.TrafficModel`
    whose per-node sources feed the devices (``None``: saturated).
    """
    streams = RandomStreams(seed)
    env = Environment()
    medium = Medium(env)
    config = SuperframeConfig(
        beacon_order=beacon_order,
        superframe_order=(beacon_order if superframe_order is None
                          else superframe_order))
    link_map = {i: AwgnLink(path_loss_db=path_loss_db)
                for i in range(1, num_nodes + 1)} if links else {}
    coordinator = Coordinator(env, medium, config, links=link_map,
                              rng=streams.get("coord"))
    devices = []
    for node_id in range(1, num_nodes + 1):
        devices.append(Device(
            env=env, node_id=node_id, medium=medium, coordinator=coordinator,
            config=config, payload_bytes=payload_bytes, tx_power_dbm=0.0,
            traffic_source=(None if traffic is None else traffic.make_source(
                streams.get(f"traffic{node_id}"))),
            rng=streams.get(f"dev{node_id}")))
    coordinator.start()
    for device in devices:
        device.start()
    return env, medium, coordinator, devices, config


class TestCoordinator:
    def test_beacons_emitted_every_interval(self):
        env, medium, coordinator, devices, config = build_network(num_nodes=1)
        env.run(until=4.5 * config.beacon_interval_s)
        assert coordinator.counters.get("beacons_sent") == 5

    def test_beacon_frame_structure(self):
        env, medium, coordinator, devices, config = build_network(num_nodes=1)
        beacon = coordinator.build_beacon()
        assert beacon.beacon_order == config.beacon_order
        assert beacon.source == Coordinator.COORDINATOR_ID

    @pytest.mark.parametrize("beacon_order, superframe_order",
                             [(0, 0), (3, 1), (6, 6), (6, 4), (10, 2),
                              (14, 14)])
    def test_beacon_airtime_matches_the_batched_kernel(self, beacon_order,
                                                       superframe_order):
        # Both kernels charge one beacon per superframe; its length carries
        # the empty GTS and pending-address fields' fixed bytes.
        env = Environment()
        medium = Medium(env)
        config = SuperframeConfig(beacon_order=beacon_order,
                                  superframe_order=superframe_order)
        coordinator = Coordinator(env, medium, config)
        beacon = coordinator.build_beacon()
        assert beacon.gts_descriptors == 0
        assert tuple(beacon.pending_short_addresses) == ()
        byte_period = MAC_2450MHZ.timing.byte_period_s
        assert beacon.airtime_s(byte_period) == \
            _beacon_airtime_s(config, MAC_2450MHZ)
        coordinator.start()
        env.run(until=0.0)
        assert coordinator.current_superframe.beacon_airtime_s == \
            _beacon_airtime_s(config, MAC_2450MHZ)

    def test_device_id_zero_reserved(self):
        env, medium, coordinator, devices, config = build_network(num_nodes=1)
        with pytest.raises(ValueError):
            Device(env=env, node_id=0, medium=medium, coordinator=coordinator,
                   config=config)


class TestDeviceTransactions:
    def test_single_node_delivers_every_packet(self):
        env, medium, coordinator, devices, config = build_network(
            num_nodes=1, beacon_order=2)
        env.run(until=6 * config.beacon_interval_s)
        device = devices[0]
        assert device.counters.get("packets_attempted") >= 5
        assert device.counters.get("packets_delivered") \
            == device.counters.get("packets_attempted")
        assert coordinator.counters.get("data_frames_accepted") \
            == device.counters.get("packets_delivered")

    def test_energy_ledger_covers_all_phases(self):
        env, medium, coordinator, devices, config = build_network(
            num_nodes=1, beacon_order=2)
        env.run(until=4 * config.beacon_interval_s)
        phases = devices[0].radio.ledger.energy_by_phase()
        for phase in ("beacon", "contention", "transmit", "ackifs", "sleep"):
            assert phase in phases
            assert phases[phase] >= 0.0

    def test_node_sleeps_most_of_the_time(self):
        env, medium, coordinator, devices, config = build_network(
            num_nodes=1, beacon_order=4)
        env.run(until=4 * config.beacon_interval_s)
        times = devices[0].radio.ledger.time_by_state()
        total = sum(times.values())
        assert times[RadioState.SHUTDOWN] / total > 0.8

    def test_average_power_decreases_with_beacon_order(self):
        # Longer superframes amortise the fixed per-superframe cost.
        _, _, _, devices_bo2, config2 = build_network(num_nodes=1, beacon_order=2,
                                                      seed=1)
        env2 = devices_bo2[0].env
        env2.run(until=4 * config2.beacon_interval_s)
        _, _, _, devices_bo5, config5 = build_network(num_nodes=1, beacon_order=5,
                                                      seed=1)
        env5 = devices_bo5[0].env
        env5.run(until=4 * config5.beacon_interval_s)
        power_bo2 = (devices_bo2[0].radio.ledger.total_energy_j
                     / (4 * config2.beacon_interval_s))
        power_bo5 = (devices_bo5[0].radio.ledger.total_energy_j
                     / (4 * config5.beacon_interval_s))
        assert power_bo5 < power_bo2

    def test_bad_link_causes_retransmissions(self):
        env, medium, coordinator, devices, config = build_network(
            num_nodes=1, beacon_order=2, path_loss_db=92.5, seed=3)
        env.run(until=8 * config.beacon_interval_s)
        device = devices[0]
        transmissions = device.counters.get("frames_transmitted")
        delivered = device.counters.get("packets_delivered")
        assert transmissions > delivered  # at least one retransmission happened

    def test_perfect_link_without_links_map(self):
        env, medium, coordinator, devices, config = build_network(
            num_nodes=1, beacon_order=2, links=False)
        env.run(until=3 * config.beacon_interval_s)
        assert devices[0].counters.get("acks_missed") == 0

    def test_multiple_nodes_share_the_channel(self):
        env, medium, coordinator, devices, config = build_network(
            num_nodes=4, beacon_order=3, seed=5)
        env.run(until=4 * config.beacon_interval_s)
        total_delivered = sum(d.counters.get("packets_delivered") for d in devices)
        assert total_delivered > 0
        assert coordinator.counters.get("data_frames_accepted") == total_delivered
        # Energy is tracked per node.
        for device in devices:
            assert device.radio.ledger.total_energy_j > 0.0

    def test_delays_recorded_for_delivered_packets(self):
        env, medium, coordinator, devices, config = build_network(
            num_nodes=1, beacon_order=2)
        env.run(until=4 * config.beacon_interval_s)
        device = devices[0]
        assert device.delays.count == device.counters.get("packets_delivered")
        assert device.delays.mean < config.beacon_interval_s

    def test_packet_source_can_suppress_traffic(self):
        # A cold buffer filling one sample per 1000 s never holds a packet.
        env = Environment()
        medium = Medium(env)
        config = SuperframeConfig(beacon_order=2, superframe_order=2)
        coordinator = Coordinator(env, medium, config)
        silent = BufferedTrafficSource(
            traffic=PeriodicSensingTraffic(sampling_interval_s=1e3,
                                           payload_bytes=120))
        device = Device(env=env, node_id=1, medium=medium,
                        coordinator=coordinator, config=config,
                        traffic_source=silent)
        coordinator.start()
        device.start()
        env.run(until=3 * config.beacon_interval_s)
        assert device.counters.get("packets_attempted") == 0
        assert device.counters.get("beacons_received") >= 2
        assert device.counters.get("superframes_without_traffic") == \
            device.counters.get("beacons_received")
        assert device.radio.ledger.energy_by_phase().get("transmit", 0.0) \
            == 0.0


#: Small channels that between them reach every way a transaction ends:
#: delivery, corruption and retransmission, exhausted retries, channel
#: access failure and deferral at the end of the CAP, plus an inactive
#: portion and superframes without traffic.
SCENARIOS = {
    "saturated": dict(num_nodes=4, beacon_order=3, seed=5, superframes=5),
    "lossy-link": dict(num_nodes=2, beacon_order=2, path_loss_db=92.5,
                       seed=3, superframes=8),
    "marginal-link": dict(num_nodes=2, beacon_order=2, path_loss_db=94.0,
                          seed=8, superframes=10),
    "inactive-portion": dict(num_nodes=4, beacon_order=5,
                             superframe_order=3, seed=1, superframes=4),
    "short-cap": dict(num_nodes=12, beacon_order=1, superframe_order=0,
                      payload_bytes=100, seed=2, superframes=6),
    "dense": dict(num_nodes=10, beacon_order=2, superframe_order=1,
                  payload_bytes=120, path_loss_db=85.0, seed=4,
                  superframes=6),
    "poisson-traffic": dict(num_nodes=3, beacon_order=2, seed=6,
                            superframes=8,
                            traffic=PoissonTraffic(mean_interval_s=0.05,
                                                   payload_bytes=50)),
}

PHASES = {PHASE_BEACON, PHASE_CONTENTION, PHASE_TRANSMIT, PHASE_ACK,
          PHASE_SLEEP}


@lru_cache(maxsize=None)
def run_scenario(name):
    """Run one of :data:`SCENARIOS` once; the tests below only read it."""
    params = dict(SCENARIOS[name])
    superframes = params.pop("superframes")
    env, medium, coordinator, devices, config = build_network(**params)
    env.run(until=superframes * config.beacon_interval_s)
    return medium, coordinator, devices, config


def _total(devices, counter):
    return sum(device.counters.get(counter) for device in devices)


class TestKernelInvariants:
    """Bookkeeping that must hold on any channel the event kernel runs.

    Each run stops at a beacon instant with every transaction closed: a
    transaction ends inside its CAP unless a missed acknowledgement's wait
    runs past it, which none of these seeded channels does in its last
    superframe.
    """

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_transaction_ends_in_one_outcome(self, name):
        _, _, devices, _ = run_scenario(name)
        for device in devices:
            get = device.counters.get
            assert get("beacons_received") == \
                get("packets_attempted") + get("superframes_without_traffic")
            assert get("packets_attempted") == (
                get("packets_delivered") + get("packets_failed")
                + get("channel_access_failures")
                + get("transactions_deferred"))

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_unacknowledged_frame_is_retried_or_fails(self, name):
        _, _, devices, _ = run_scenario(name)
        n_max = MAC_2450MHZ.max_transmissions
        for device in devices:
            get = device.counters.get
            transmitted = get("frames_transmitted")
            assert transmitted == get("packets_delivered") + get("acks_missed")
            assert transmitted <= n_max * get("packets_attempted")
            assert get("acks_missed") >= n_max * get("packets_failed")

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_coordinator_judges_every_frame_once(self, name):
        _, coordinator, devices, _ = run_scenario(name)
        get = coordinator.counters.get
        assert get("data_frames_seen") == get("data_frames_accepted") \
            + get("collisions") + get("corrupted_frames")
        assert get("data_frames_seen") == _total(devices, "frames_transmitted")
        assert get("data_frames_accepted") == \
            _total(devices, "packets_delivered")

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_the_medium_carries_only_beacons_and_data_frames(self, name):
        medium, coordinator, devices, _ = run_scenario(name)
        assert medium.transmission_count == \
            coordinator.counters.get("beacons_sent") \
            + _total(devices, "frames_transmitted")

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_delivery_delays_fall_inside_the_active_portion(self, name):
        _, coordinator, devices, config = run_scenario(name)
        constants = MAC_2450MHZ
        # Beacon, two clear CCAs, the frame and its acknowledgement.
        shortest = (coordinator.current_superframe.beacon_airtime_s
                    + 2 * constants.unit_backoff_period_s
                    + devices[0].packet_airtime_s
                    + constants.turnaround_time_s
                    + AckFrame().airtime_s(constants.timing.byte_period_s))
        for device in devices:
            if device.delays.count:
                assert min(device.delays.values) >= shortest - 1e-12
                assert device.delays.max <= \
                    config.superframe_duration_s + 1e-12

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_energy_ledger_is_tagged_and_covers_the_radio_clock(self, name):
        _, _, devices, _ = run_scenario(name)
        for device in devices:
            ledger = device.radio.ledger
            by_phase = ledger.energy_by_phase()
            assert set(by_phase) <= PHASES
            assert sum(by_phase.values()) == \
                pytest.approx(ledger.total_energy_j, rel=1e-12)
            assert sum(ledger.time_by_state().values()) == \
                pytest.approx(device.radio.time_s, rel=1e-12)

    def test_the_scenarios_reach_every_outcome(self):
        devices = [device for name in SCENARIOS
                   for device in run_scenario(name)[2]]
        for counter in ("packets_delivered", "acks_missed", "packets_failed",
                        "channel_access_failures", "transactions_deferred",
                        "superframes_without_traffic", "cca_busy"):
            assert _total(devices, counter) > 0, counter
        corrupted = sum(run_scenario(name)[1].counters.get("corrupted_frames")
                        for name in SCENARIOS)
        assert corrupted > 0
