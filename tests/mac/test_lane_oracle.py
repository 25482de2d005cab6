"""The scalar per-lane oracle of the batched MAC kernel.

:func:`simulate_lane_reference` is the pre-batching single-lane uplink
kernel.  It walks one lane through an explicit event heap and draws every
variate from ``Generator`` calls, so it depends neither on the batched
kernel's lockstep layout nor on its raw-stream replay.  The batched kernel
must match it exactly: counts, power, delay and per-phase energies.

It stays as an oracle because the event kernel cannot replace it at the
simulation horizon.  With BO = SO = 0 the last CAP ends exactly at the cut,
and the event kernel resolves the cut's last samples in another order: on
the scenarios of :class:`TestHorizonCutRegimes` it differs from the batched
kernel in failure counts or mean power, while the oracle agrees bit for
bit.
"""

from heapq import heappop, heappush
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.mac.constants import MAC_2450MHZ, MacConstants
from repro.mac.csma import CsmaParameters
from repro.mac.device import (PHASE_ACK, PHASE_BEACON, PHASE_CONTENTION,
                              PHASE_SLEEP, PHASE_TRANSMIT)
from repro.mac.frames import AckFrame
from repro.mac.superframe import SuperframeConfig
from repro.mac.vectorized import (BatchedChannelSimulator, ChannelLane,
                                  _beacon_airtime_s, _make_data_frame)
from repro.network.node import SensorNode
from repro.network.routing import SinkTree
from repro.network.scenario import ChannelScenario
from repro.network.traffic import build_traffic_model
from repro.obs.tracer import current_tracer
from repro.radio.power_profile import (CC2420_PROFILE, RadioPowerProfile,
                                       T_SHUTDOWN_TO_IDLE_POLICY_S)
from repro.radio.states import RadioState
from repro.sim.random import RandomStreams

#: Event kinds of the oracle's compact queue.
_EVENT_CCA_SAMPLE = 0
_EVENT_TX_END = 1


def simulate_lane_reference(lane: ChannelLane, config: SuperframeConfig,
                            constants: MacConstants, payload_bytes: int,
                            csma_params: CsmaParameters,
                            profile: RadioPowerProfile, traffic,
                            superframes: int):
    """Scalar single-lane kernel drawing from the generators directly.

    The pre-batching implementation of the uplink kernel: one Python pass
    per lane over an explicit CCA-sample / TX-end event heap, its variates
    taken from ``Generator`` calls instead of raw-stream replay.  Slower
    than the batched kernel but equivalent to it, including at the
    simulation horizon.
    """
    from repro.network.routing import depth_breakdown, make_lane_sources
    from repro.network.scenario import SimulationSummary
    from repro.network.traffic import SaturatedTraffic

    # Telemetry mirrors _run_batched: phase times accumulate in floats
    # behind one enabled-check, spans are emitted once at the end.
    tracer = current_tracer()
    tracing = tracer.enabled
    t_setup = perf_counter() if tracing else 0.0

    nodes = lane.nodes
    params = csma_params
    n = len(nodes)

    # ---- timing constants (all in seconds) ---------------------------------
    slot = constants.unit_backoff_period_s
    byte_period = constants.timing.byte_period_s
    interval = config.beacon_interval_s
    sf_duration = config.superframe_duration_s
    beacon_air = _beacon_airtime_s(config, constants)
    frame = _make_data_frame(payload_bytes)
    frame_air = frame.airtime_s(byte_period)
    ack_air = AckFrame().airtime_s(byte_period)
    turnaround = constants.turnaround_time_s
    ack_wait = constants.ack_wait_duration_s
    residual = max(0.0, ack_wait - turnaround)
    wake_lead = T_SHUTDOWN_TO_IDLE_POLICY_S
    margin = 56 * slot + frame_air + ack_wait
    txn_tail = frame_air + turnaround + ack_air
    horizon = superframes * interval
    max_transmissions = constants.max_transmissions
    max_backoffs = params.max_csma_backoffs
    contention_window = params.contention_window
    be0 = params.initial_backoff_exponent()
    be_cap = params.max_be
    if params.battery_life_extension:
        be_cap = min(be_cap, params.battery_life_extension_max_be)

    # ---- random streams (identical names to the event kernel) -------------
    streams = RandomStreams(lane.seed)
    coordinator_rng = streams.get("coordinator")
    generators = [streams.get(f"device[{node.node_id}]") for node in nodes]

    # ---- per-node traffic feeds (identical streams to the event kernel) ----
    traffic_model = traffic
    if traffic_model is None:
        traffic_model = SaturatedTraffic(payload_bytes=payload_bytes)
    sources = make_lane_sources(
        traffic_model, [node.node_id for node in nodes], streams,
        tree=lane.tree, hop_lag_s=interval)

    # ---- per-device link/corruption constants -----------------------------
    programmed_dbm = [profile.tx_level(level).level_dbm
                      for level in lane.tx_levels_dbm]
    packet_error = [node.link().packet_error_probability(level,
                                                         frame.ppdu_bytes)
                    for node, level in zip(nodes, programmed_dbm)]

    # ---- lockstep device state ---------------------------------------------
    next_beacon = [0.0] * n        # beacon the device will synchronise to
    beacon_time = [0.0] * n        # beacon anchoring the running transaction
    cfp_start = [0.0] * n          # end of the CAP of that superframe
    attempt = [0] * n              # transmissions already spent this packet
    be = [be0] * n                 # backoff exponent
    nb = [0] * n                   # backoff stages used this attempt
    cw = [0] * n                   # remaining clear CCAs before transmit

    # ---- deferred-ledger accumulators --------------------------------------
    sleep_t = [0.0] * n            # shutdown dwell               (sleep)
    wake_beacon = [0] * n          # shutdown->idle transitions   (beacon)
    idle_beacon_t = [0.0] * n      # pre-beacon idle dwell        (beacon)
    beacon_rx = [0] * n            # beacon receptions            (beacon)
    wake_cont = [0] * n            # stagger wake-ups             (contention)
    idle_cont_t = [0.0] * n        # stagger + backoff idle dwell (contention)
    cca = [0] * n                  # clear channel assessments    (contention)
    tx = [0] * n                   # data-frame transmissions     (transmit)
    idle_ack_t = [0.0] * n         # turnaround idle dwell        (ackifs)
    ack_rx = [0] * n               # acknowledgements received    (ackifs)
    residual_rx = [0] * n          # full ack-wait timeouts       (ackifs)

    # ---- result counters ----------------------------------------------------
    attempted = [0] * n
    delivered = [0] * n
    failures = [0] * n
    delays: List[List[float]] = [[] for _ in range(n)]
    collision_count = 0
    phase_seen = {PHASE_BEACON: False, PHASE_CONTENTION: False,
                  PHASE_TRANSMIT: False, PHASE_ACK: False,
                  PHASE_SLEEP: False}

    # ---- medium state -------------------------------------------------------
    # Transmissions on air as [end_time, collided, device].  Starts are
    # chronological and every frame has the same airtime, so the list
    # stays sorted by end time and is pruned from the front; the device's
    # own reference survives pruning so the final collision status is
    # still readable when the frame completes.
    active: List[list] = []
    pending_tx: List[Optional[list]] = [None] * n

    heap: List[tuple] = []
    seq = 0

    def push(time: float, kind: int, index: int) -> None:
        nonlocal seq
        seq += 1
        heappush(heap, (time, seq, kind, index))

    def start_attempt(index: int, now: float) -> Optional[float]:
        """Draw the first backoff of a contention attempt starting at ``now``.

        Returns the deferral time when the first CCA would fall outside
        the CAP, ``None`` when a CCA sample was scheduled (or the device
        ran past the horizon mid-wait).
        """
        be[index] = be0
        nb[index] = 0
        cw[index] = contention_window
        delay = int(generators[index].integers(0, 1 << be0))
        if delay:
            idle_cont_t[index] += delay * slot
            phase_seen[PHASE_CONTENTION] = True
        cca_start = now + delay * slot
        if cca_start > horizon:
            return None
        if cca_start >= cfp_start[index]:
            return cca_start
        cca[index] += 1
        phase_seen[PHASE_CONTENTION] = True
        push(cca_start + slot, _EVENT_CCA_SAMPLE, index)
        return None

    def begin_superframes(index: int, now: float, initial: bool = False) -> None:
        """Advance a device from the end of one superframe's activity.

        Mirrors the kernel's per-superframe loop: sleep to the pre-beacon
        wake-up, receive the beacon, stagger, start the uplink
        transaction.  Iterates over superframes whose transaction defers
        before its first CCA; every charge is guarded by the simulated
        time at which the kernel would have made it.
        """
        while True:
            if not initial:
                phase_seen[PHASE_SLEEP] = True   # idle->shutdown strobe
            initial = False
            beacon_at = next_beacon[index]
            wake = beacon_at - wake_lead
            if wake > now:
                sleep_t[index] += wake - now
            else:
                wake = now
            if wake > horizon:  # pragma: no cover - the horizon beacon's
                return          # arrival check below returns first
            wake_beacon[index] += 1
            resume = wake
            startup_wait = beacon_at - wake
            if startup_wait > 0:
                idle_beacon_t[index] += startup_wait
                resume = beacon_at
            if resume > horizon:  # pragma: no cover - same: beacons past
                return            # the horizon are never begun
            beacon_rx[index] += 1
            phase_seen[PHASE_BEACON] = True
            arrival = resume + beacon_air
            if arrival > horizon:
                return
            # Poll the traffic feed at the superframe boundary, exactly
            # where the event kernel does: no buffered packet means the
            # device sleeps this superframe out after the beacon.
            if not sources[index].poll(beacon_at):
                now = arrival
                next_beacon[index] += interval
                continue
            sources[index].drain_packet()
            cap_end = beacon_at + sf_duration
            latest_start = cap_end - margin
            start = arrival
            if latest_start > arrival + wake_lead:
                phase_seen[PHASE_CONTENTION] = True
                start = float(generators[index].uniform(
                    arrival + wake_lead, latest_start))
                stagger_sleep = start - arrival - wake_lead
                if stagger_sleep > 0:
                    phase_seen[PHASE_SLEEP] = True
                    sleep_t[index] += stagger_sleep
                    # start < latest_start <= horizon, so the cut cannot
                    # land mid-stagger
                    if start - wake_lead > horizon:  # pragma: no cover
                        return
                    wake_cont[index] += 1
                idle_cont_t[index] += wake_lead
            attempted[index] += 1
            attempt[index] = 0
            beacon_time[index] = beacon_at
            cfp_start[index] = cap_end
            deferred_at = start_attempt(index, start)
            if deferred_at is None:
                return
            now = deferred_at
            next_beacon[index] += interval

    def end_transaction(index: int, now: float) -> None:
        next_beacon[index] += interval
        begin_superframes(index, now)

    if tracing:
        t_grid = perf_counter()
        setup_s = t_grid - t_setup

    for index in range(n):
        begin_superframes(index, 0.0, initial=True)

    # ---- interaction event loop --------------------------------------------
    if tracing:
        t_merge = perf_counter()
        grid_s = t_merge - t_grid
    while heap:
        now, _, kind, index = heappop(heap)
        if now > horizon:
            break
        while active and active[0][0] <= now:
            active.pop(0)

        if kind == _EVENT_CCA_SAMPLE:
            if active:  # channel busy at the sample instant
                nb[index] += 1
                be[index] = min(be[index] + 1, be_cap)
                cw[index] = contention_window
                if nb[index] > max_backoffs:
                    failures[index] += 1
                    end_transaction(index, now)
                    continue
                delay = int(generators[index].integers(0, 1 << be[index]))
                if delay:
                    idle_cont_t[index] += delay * slot
                cca_start = now + delay * slot
                if cca_start > horizon:
                    continue
                if cca_start >= cfp_start[index]:
                    end_transaction(index, cca_start)
                    continue
                cca[index] += 1
                push(cca_start + slot, _EVENT_CCA_SAMPLE, index)
                continue
            cw[index] -= 1
            if cw[index] > 0:  # second CCA of the contention window
                if now >= cfp_start[index]:
                    end_transaction(index, now)
                    continue
                cca[index] += 1
                push(now + slot, _EVENT_CCA_SAMPLE, index)
                continue
            # Channel clear twice: transmit, unless the transaction no
            # longer fits in the contention access period.
            if now + txn_tail > cfp_start[index]:
                end_transaction(index, now)
                continue
            tx[index] += 1
            phase_seen[PHASE_TRANSMIT] = True
            entry = [now + frame_air, False, index]
            if active:  # pragma: no cover - measure-zero with CCA sampling
                entry[1] = True
                for other in active:
                    other[1] = True
                collision_count += 1
            active.append(entry)
            pending_tx[index] = entry
            push(now + frame_air, _EVENT_TX_END, index)
            continue

        # ---- data frame completed: acknowledgement decision ----------------
        phase_seen[PHASE_ACK] = True
        # Collision status is final: any collider must have started
        # strictly before the frame ended.
        entry = pending_tx[index]
        pending_tx[index] = None
        collided = entry[1]
        acked = False
        if not collided:
            acked = not (coordinator_rng.random() < packet_error[index])
        idle_ack_t[index] += turnaround
        ack_resume = now + turnaround
        if acked:
            ack_rx[index] += 1
            done = ack_resume + ack_air
            # float-edge guard: the CAP fit check bounds done <= horizon
            if done > horizon:  # pragma: no cover
                continue
            delivered[index] += 1
            delays[index].append(done - beacon_time[index])
            end_transaction(index, done)
            continue
        residual_rx[index] += 1
        retry_at = ack_resume + residual
        if retry_at > horizon:
            continue
        attempt[index] += 1
        if attempt[index] >= max_transmissions:
            end_transaction(index, retry_at)
            continue
        deferred_at = start_attempt(index, retry_at)
        if deferred_at is not None:
            end_transaction(index, deferred_at)

    # ---- numpy ledger reduction --------------------------------------------
    if tracing:
        t_ledger = perf_counter()
        merge_s = t_ledger - t_merge
    power_sd = profile.power_w(RadioState.SHUTDOWN)
    power_idle = profile.power_w(RadioState.IDLE)
    power_rx = profile.power_w(RadioState.RX)
    power_tx = np.array([profile.tx_power_w(level)
                         for level in programmed_dbm])
    startup = profile.transition(RadioState.SHUTDOWN, RadioState.IDLE)
    to_rx = profile.transition(RadioState.IDLE, RadioState.RX)
    to_tx = profile.transition(RadioState.IDLE, RadioState.TX)
    from_rx = profile.transition(RadioState.RX, RadioState.IDLE)
    from_tx = profile.transition(RadioState.TX, RadioState.IDLE)

    sleep_t = np.array(sleep_t)
    wake_beacon = np.array(wake_beacon)
    idle_beacon_t = np.array(idle_beacon_t)
    beacon_rx = np.array(beacon_rx)
    wake_cont = np.array(wake_cont)
    idle_cont_t = np.array(idle_cont_t)
    cca = np.array(cca)
    tx = np.array(tx)
    idle_ack_t = np.array(idle_ack_t)
    ack_rx = np.array(ack_rx)
    residual_rx = np.array(residual_rx)

    rx_round_e = to_rx.energy_j + from_rx.energy_j
    rx_round_t = to_rx.duration_s + from_rx.duration_s
    energy_beacon = (wake_beacon * startup.energy_j
                     + idle_beacon_t * power_idle
                     + beacon_rx * (rx_round_e + power_rx * beacon_air))
    energy_cont = (wake_cont * startup.energy_j
                   + idle_cont_t * power_idle
                   + cca * (rx_round_e + power_rx * slot))
    energy_tx = tx * (to_tx.energy_j + from_tx.energy_j) \
        + tx * power_tx * frame_air
    energy_ack = (idle_ack_t * power_idle
                  + ack_rx * (rx_round_e + power_rx * ack_air)
                  + residual_rx * (rx_round_e + power_rx * residual))
    energy_sleep = sleep_t * power_sd
    energy = (energy_beacon + energy_cont + energy_tx + energy_ack
              + energy_sleep)
    elapsed = (sleep_t
               + (wake_beacon + wake_cont) * startup.duration_s
               + idle_beacon_t + idle_cont_t + idle_ack_t
               + beacon_rx * (rx_round_t + beacon_air)
               + cca * (rx_round_t + slot)
               + tx * (to_tx.duration_s + from_tx.duration_s + frame_air)
               + ack_rx * (rx_round_t + ack_air)
               + residual_rx * (rx_round_t + residual))
    powers = energy / np.maximum(elapsed, 1e-12)

    phase_energy: Dict[str, float] = {}
    for phase, total in ((PHASE_BEACON, energy_beacon),
                         (PHASE_CONTENTION, energy_cont),
                         (PHASE_TRANSMIT, energy_tx),
                         (PHASE_ACK, energy_ack),
                         (PHASE_SLEEP, energy_sleep)):
        if phase_seen[phase]:
            phase_energy[phase] = float(np.sum(total))

    all_delays = [delay for per_device in delays for delay in per_device]
    by_depth = None
    if lane.tree is not None:
        by_depth = depth_breakdown(
            lane.tree, [node.node_id for node in nodes], attempted,
            delivered, [sum(per_device) for per_device in delays],
            energy, elapsed)

    if tracing:
        ledger_s = perf_counter() - t_ledger
        kernel = tracer.record_span(
            "kernel:reference", setup_s + grid_s + merge_s + ledger_s,
            kind="kernel", counters={"lanes": 1, "devices": n})
        tracer.record_span("setup", setup_s, parent=kernel)
        tracer.record_span("beacon_grid", grid_s, parent=kernel,
                           counters={"attempts": int(sum(attempted))})
        tracer.record_span("contention_merge", merge_s, parent=kernel,
                           counters={"cca": int(cca.sum())})
        tracer.record_span("energy_ledger", ledger_s, parent=kernel)
    return SimulationSummary(
        simulated_time_s=horizon,
        node_count=n,
        superframes=superframes,
        packets_attempted=int(sum(attempted)),
        packets_delivered=int(sum(delivered)),
        channel_access_failures=int(sum(failures)),
        collisions=collision_count,
        mean_node_power_w=float(np.mean(powers)),
        mean_delivery_delay_s=(float(np.mean(all_delays))
                               if all_delays else None),
        energy_by_phase_j=phase_energy,
        by_depth=by_depth,
    )


def run_oracle(channel: ChannelScenario, superframes: int):
    """The oracle's summary of ``channel``, built as the batched kernel's lane."""
    lane = ChannelLane(nodes=channel.nodes,
                       tx_levels_dbm=channel.resolved_tx_levels_dbm(),
                       seed=channel.seed, tree=channel.tree)
    return simulate_lane_reference(
        lane, channel.config, channel.constants, channel.payload_bytes,
        channel.csma_params, CC2420_PROFILE, channel.traffic, superframes)


def assert_summaries_match(expected, actual):
    """Exact counts; power, delay and per-phase energies to 1e-9."""
    for field in ("packets_attempted", "packets_delivered",
                  "channel_access_failures", "collisions", "node_count",
                  "superframes", "simulated_time_s"):
        assert getattr(actual, field) == getattr(expected, field), field
    assert actual.mean_node_power_w == pytest.approx(
        expected.mean_node_power_w, rel=1e-9)
    if expected.mean_delivery_delay_s is None:
        assert actual.mean_delivery_delay_s is None
    else:
        assert actual.mean_delivery_delay_s == pytest.approx(
            expected.mean_delivery_delay_s, rel=1e-9)
    assert set(actual.energy_by_phase_j) == set(expected.energy_by_phase_j)
    for phase, energy in expected.energy_by_phase_j.items():
        assert actual.energy_by_phase_j[phase] == pytest.approx(
            energy, rel=1e-9), phase


class TestOracleMatrix:
    """Batched runs reproduce the oracle lane by lane.

    The batched kernel's per-device chain takes a busy CCA, a clear CCA
    with window left, or a transmission followed by a retry, and the busy
    and retry branches share one backoff draw.  Each CSMA parameter set
    drives a different mix of those branches: CW 1 transmits on the first
    clear CCA and CW 3 needs two more, BE 0 and BE 5 pin the shortest and
    longest backoffs, the standard convention allows four extra backoffs
    and battery-life extension caps BE at 2.  The two lanes of each CSMA
    and traffic call differ in seed and link loss (a clean 70 dB lane under
    heavy load and a lossy 93 dB one), so they also pin lane independence.
    One case runs through :meth:`ChannelScenario.run`, the single-lane path.
    """

    CSMA = {
        "paper": CsmaParameters.from_mac_constants(),
        "standard": CsmaParameters.from_mac_constants(paper_convention=False),
        "battery-life-extension": CsmaParameters.from_mac_constants(
            battery_life_extension=True),
        "be-0": CsmaParameters(min_be=0, max_be=0),
        "be-5": CsmaParameters(min_be=5, max_be=5),
        "cw-1": CsmaParameters(contention_window=1),
        "cw-3": CsmaParameters(contention_window=3),
    }

    STRUCTURES = {"full-active": (2, 2), "duty-cycled": (4, 2)}

    TRAFFIC = ("periodic", "poisson", "bursty", "mixed")

    @staticmethod
    def lane(seed, node_count, path_loss_db, tree=None):
        nodes = [SensorNode(node_id=i, channel=11,
                            path_loss_db=path_loss_db, tx_power_dbm=0.0)
                 for i in range(1, node_count + 1)]
        return ChannelLane(nodes=nodes, tx_levels_dbm=[0.0] * node_count,
                           seed=seed, tree=tree)

    @staticmethod
    def run_against_the_oracle(lanes, config, superframes, params=None,
                               traffic=None):
        """Batched summaries of ``lanes``, each checked against the oracle."""
        params = params or CsmaParameters.from_mac_constants()
        summaries = BatchedChannelSimulator(
            lanes, config, payload_bytes=100, csma_params=params,
            traffic=traffic).run(superframes=superframes)
        for lane, summary in zip(lanes, summaries):
            expected = simulate_lane_reference(
                lane, config, MAC_2450MHZ, 100, params, CC2420_PROFILE,
                traffic, superframes)
            assert_summaries_match(expected, summary)
            assert (summary.by_depth is None) == (expected.by_depth is None)
            for depth, row in (expected.by_depth or {}).items():
                assert summary.by_depth[depth] == pytest.approx(
                    row, rel=1e-9), depth
        return summaries

    @pytest.mark.parametrize("structure", sorted(STRUCTURES))
    @pytest.mark.parametrize("csma", sorted(CSMA))
    def test_csma_parameter_sets_match_the_oracle(self, csma, structure):
        beacon_order, superframe_order = self.STRUCTURES[structure]
        config = SuperframeConfig(beacon_order=beacon_order,
                                  superframe_order=superframe_order)
        summaries = self.run_against_the_oracle(
            [self.lane(5, 12, 70.0), self.lane(6, 12, 93.0)], config,
            superframes=8, params=self.CSMA[csma])
        # Saturated contention must fail some accesses on both lanes, or
        # the busy-CCA and retry branches went unexercised.
        assert all(summary.channel_access_failures > 0
                   for summary in summaries)

    @pytest.mark.parametrize("model", TRAFFIC)
    def test_traffic_models_match_the_oracle(self, model):
        config = SuperframeConfig(beacon_order=3, superframe_order=3)
        summaries = self.run_against_the_oracle(
            [self.lane(5, 16, 70.0), self.lane(6, 16, 93.0)], config,
            superframes=16,
            traffic=build_traffic_model(model, payload_bytes=100))
        assert all(summary.packets_attempted > 0 for summary in summaries)

    def test_routed_lanes_match_the_oracle_per_depth(self):
        tree = SinkTree(parent={1: 0, 2: 1, 3: 2, 4: 0, 5: 4, 6: 0},
                        depth={1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: 1},
                        link_loss_db={i: 70.0 for i in range(1, 7)})
        summaries = self.run_against_the_oracle(
            [self.lane(5, 6, 70.0, tree), self.lane(6, 6, 70.0, tree)],
            SuperframeConfig(beacon_order=3, superframe_order=3),
            superframes=8,
            traffic=build_traffic_model("periodic", payload_bytes=100))
        assert all(sorted(summary.by_depth) == [1, 2, 3]
                   for summary in summaries)

    def test_channel_scenario_run_matches_the_oracle(self):
        """``ChannelScenario.run(backend="batched")`` is one lane of the
        batched kernel: a duty-cycled Poisson channel matches the oracle."""
        channel = ChannelScenario(
            self.lane(5, 8, 70.0).nodes,
            SuperframeConfig(beacon_order=4, superframe_order=2),
            payload_bytes=100, seed=5,
            traffic=build_traffic_model("poisson", payload_bytes=100))
        assert_summaries_match(run_oracle(channel, superframes=8),
                               channel.run(superframes=8, backend="batched"))


class TestHorizonCutRegimes:
    """Batched kernel and oracle agree where the horizon cuts activity.

    ``BO == SO == 0`` makes the last CAP end exactly at the simulation
    horizon, so saturated bursts drive contention chains, retry resumes
    and deferred wake-ups across the cut — the kill paths a long
    duty-cycled run never reaches.  Each scenario pins the batched kernel
    against the oracle bit-for-bit: counts exactly, power, delay and
    per-phase energies to 1e-9.

    Scope: with no stagger every device contends on the same
    backoff-slot grid, so dense bursts can produce float-identical event
    times, where the kernels' tie orders legitimately differ (the event
    kernel and the oracle disagree there too).  The scenarios below were
    chosen tie-free — except ``zero-backoff``, where ties are structural
    (every backoff is zero slots) and the contract weakens to exact
    counts.  Event-kernel agreement across the cut holds at count level
    only in the sparse regimes; the dense ones reorder the cut's last
    few samples.
    """

    SCENARIOS = {
        # busy-backoff resume past the horizon; retry resume after a
        # lost acknowledgement crossing the cut
        "retry-resume-cut": dict(node_count=10, path_loss_db=95.0,
                                 seed=6, superframes=4),
        # clear-CCA window escaping to the heap straight past the cut
        "window-escape-cut": dict(node_count=10, path_loss_db=95.0,
                                  seed=26, superframes=4),
        # 31-slot backoffs carry devices past the next beacon: the next
        # attempt defers a whole superframe
        "deferred-wakeups": dict(node_count=12, path_loss_db=90.0,
                                 seed=4, superframes=6, backoff_exponent=5),
        # same carry-over, but the deferred first CCA lands beyond the
        # horizon and the device dies in phase A
        "deferred-wakeup-killed": dict(node_count=12, path_loss_db=90.0,
                                       seed=8, superframes=6,
                                       backoff_exponent=5),
        # deep backoff chains killed mid-contention at the cut
        "backoff-chain-cut": dict(node_count=12, path_loss_db=90.0,
                                  seed=10, superframes=6,
                                  backoff_exponent=5),
        # a lone lossy device defers so hard whole superframes pass
        # without a single schedulable CCA
        "single-node-retries": dict(node_count=1, path_loss_db=97.0,
                                    seed=7, superframes=20,
                                    backoff_exponent=5),
    }

    #: BE pinned at 0: every CCA lands on the same instant, so event
    #: ordering at ties differs between the kernels and only the
    #: transaction counts are pinned.
    ZERO_BACKOFF = dict(node_count=3, path_loss_db=95.0, seed=5,
                        superframes=4, backoff_exponent=0)

    #: Sparse enough that the event kernel's cut resolves the same
    #: transaction outcomes (denser bursts reorder the last samples).
    EVENT_COUNT_AGREEMENT = ("single-node-retries", "zero-backoff")

    def build_channel(self, node_count, path_loss_db, seed,
                      backoff_exponent=None):
        nodes = [SensorNode(node_id=i, channel=11,
                            path_loss_db=path_loss_db, tx_power_dbm=0.0)
                 for i in range(1, node_count + 1)]
        config = SuperframeConfig(beacon_order=0, superframe_order=0)
        params = None
        if backoff_exponent is not None:
            params = CsmaParameters(min_be=backoff_exponent,
                                    max_be=backoff_exponent)
        return ChannelScenario(nodes, config, payload_bytes=100, seed=seed,
                               csma_params=params)

    def run_scenario(self, settings, backend="batched"):
        settings = dict(settings)
        superframes = settings.pop("superframes")
        channel = self.build_channel(**settings)
        if backend == "oracle":
            return run_oracle(channel, superframes)
        return channel.run(superframes=superframes, backend=backend)

    @staticmethod
    def assert_counts_match(expected, actual, context):
        for field in ("packets_attempted", "packets_delivered",
                      "channel_access_failures", "collisions"):
            assert getattr(actual, field) == getattr(expected, field), (
                f"{field} diverges {context}")

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_oracle_matches_across_the_horizon_cut(self, scenario):
        settings = self.SCENARIOS[scenario]
        assert_summaries_match(self.run_scenario(settings, "oracle"),
                               self.run_scenario(settings))

    def test_zero_backoff_counts_match_the_oracle(self):
        self.assert_counts_match(
            self.run_scenario(self.ZERO_BACKOFF, "oracle"),
            self.run_scenario(self.ZERO_BACKOFF),
            "between the batched kernel and the oracle at BE=0")

    @pytest.mark.parametrize("scenario", EVENT_COUNT_AGREEMENT)
    def test_event_kernel_counts_agree_in_sparse_cut_regimes(self, scenario):
        settings = (self.ZERO_BACKOFF if scenario == "zero-backoff"
                    else self.SCENARIOS[scenario])
        fast = self.run_scenario(settings)
        event = self.run_scenario(settings, backend="event")
        self.assert_counts_match(
            event, fast, f"between the event and batched kernels ({scenario})")

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_the_cut_leaves_unresolved_attempts(self, scenario):
        """Every scenario must actually lose work to the horizon —
        otherwise it stopped exercising the cut paths it exists for."""
        summary = self.run_scenario(self.SCENARIOS[scenario])
        unresolved = (summary.packets_attempted - summary.packets_delivered
                      - summary.channel_access_failures)
        assert unresolved > 0, (
            f"{scenario} no longer drives any transaction into the cut")
