"""Node-side MAC entity implementing the paper's radio activation policy.

Each :class:`Device` models one sensor node of the star network.  Per
superframe (Figure 5 of the paper) the node:

1. pre-emptively wakes its radio ~1 ms before the beacon (shutdown -> idle
   transition) and turns the receiver on to listen to the beacon;
2. returns to idle after the beacon; if it has a packet buffered it starts
   the slotted CSMA/CA contention procedure: random backoff delays are spent
   in idle, each clear channel assessment turns the receiver on briefly;
3. on channel access failure the node gives up for this superframe; on
   success it transmits the data frame, waits ``t-ack`` in idle, then turns
   the receiver on until the acknowledgement arrives or ``t+ack`` expires;
4. a missed acknowledgement triggers a new contention procedure, up to
   ``N_max`` total transmissions;
5. once the transaction completes (or fails) the node shuts its radio down
   until the next pre-beacon wake-up.

All radio activity is charged to a per-node :class:`CC2420Radio` energy
ledger tagged with the protocol phase, which is what the simulation-side
energy breakdown (cross-validating Figure 9) is computed from.  A node's
traffic is its row of per-beacon packet gains
(:func:`repro.network.routing.lane_arrivals`, the schedule the batched
kernel reads too), kept as a packet backlog.

Together with :mod:`repro.mac.coordinator` and :mod:`repro.mac.medium` on
:mod:`repro.sim.engine` this is the event kernel: one process per device,
so every device has its own timeline.  It is the semantic oracle that the
model-vs-simulation check, the paper goldens and the event ≡ batched
contract rely on, and it models exactly the paper's uplink scenario — no
downlink, no guaranteed time slots, no association.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.mac.constants import (MAC_2450MHZ, PHASE_ACK, PHASE_BEACON,
                                 PHASE_CONTENTION, PHASE_SLEEP,
                                 PHASE_TRANSMIT, MacConstants)
from repro.mac.coordinator import Coordinator
from repro.mac.csma import CsmaAction, CsmaParameters, SlottedCsmaCa
from repro.mac.frames import AckFrame, DataFrame
from repro.mac.medium import Medium
from repro.mac.superframe import Superframe, SuperframeConfig
from repro.radio.cc2420 import CC2420Radio
from repro.radio.power_profile import (
    CC2420_PROFILE,
    RadioPowerProfile,
    T_SHUTDOWN_TO_IDLE_POLICY_S,
)
from repro.radio.states import RadioState
from repro.sim.engine import Environment
from repro.sim.monitor import CounterMonitor, Monitor


class Device:
    """One sensor node of the beacon-enabled star network.

    Parameters
    ----------
    env:
        Simulation environment.
    node_id:
        Unique node identifier (must not be 0, which is the coordinator).
    medium:
        The RF channel shared with the coordinator and the other nodes.
    coordinator:
        The PAN coordinator (decides frame acceptance and acknowledges).
    config:
        Superframe configuration.
    arrivals:
        Packets the node gains at each beacon, one entry per superframe
        (its row of :func:`repro.network.routing.lane_arrivals`; all ones
        is the paper's saturated model).  The node adds each entry to a
        backlog when the beacon starts its superframe and sends one
        packet whenever the backlog is not empty; a superframe with an
        empty backlog is slept through (beacon reception only), so a row
        of zeros is a silent node.
    payload_bytes:
        Application payload per uplink packet (L in the paper).
    tx_power_dbm:
        Transmit power level; ``None`` lets a link-adaptation callback decide.
    csma_params / constants / profile:
        MAC and radio parameterisation.
    rng:
        Random generator (stagger and backoff draws).

    Every transaction starts at a uniformly random offset within the
    contention access period rather than right after the beacon, with the
    radio shut down in between.  This matches the arrival model of the
    Monte-Carlo contention characterisation (a node's buffered packet
    completes at an arbitrary point of the superframe) and avoids a burst of
    simultaneous contention procedures after each beacon.
    """

    def __init__(self, env: Environment, node_id: int, medium: Medium,
                 coordinator: Coordinator, config: SuperframeConfig,
                 arrivals: Sequence[int],
                 payload_bytes: int = 120,
                 tx_power_dbm: Optional[float] = 0.0,
                 csma_params: Optional[CsmaParameters] = None,
                 constants: MacConstants = MAC_2450MHZ,
                 profile: RadioPowerProfile = CC2420_PROFILE,
                 rng: Optional[np.random.Generator] = None):
        if node_id == Coordinator.COORDINATOR_ID:
            raise ValueError("Node id 0 is reserved for the coordinator")
        self.env = env
        self.node_id = node_id
        self.medium = medium
        self.coordinator = coordinator
        self.config = config
        self.payload_bytes = payload_bytes
        self.tx_power_dbm = tx_power_dbm
        self.constants = constants
        self.csma_params = csma_params or CsmaParameters.from_mac_constants(constants)
        self.profile = profile
        self.arrivals = arrivals
        self._backlog = 0
        self.rng = rng if rng is not None else np.random.default_rng(node_id)

        self.radio = CC2420Radio(profile=profile,
                                 initial_state=RadioState.SHUTDOWN,
                                 time_s=env.now)
        self.counters = CounterMonitor(f"node{node_id}")
        self.delays = Monitor(f"node{node_id}.delay")
        self._sequence_number = 0
        self._process = None

    # -- lifecycle -------------------------------------------------------------------
    def start(self) -> None:
        """Launch the per-superframe uplink process."""
        if self._process is None:
            self._process = self.env.process(self._run())

    # -- helpers ----------------------------------------------------------------------
    def _next_sequence(self) -> int:
        self._sequence_number = (self._sequence_number + 1) % 256
        return self._sequence_number

    def _build_data_frame(self) -> DataFrame:
        return DataFrame(
            source=self.node_id,
            destination=Coordinator.COORDINATOR_ID,
            sequence_number=self._next_sequence(),
            ack_request=True,
            payload=bytes(self.payload_bytes),
        )

    @property
    def packet_airtime_s(self) -> float:
        """Airtime of one uplink data frame (equation 3)."""
        return self._build_data_frame().airtime_s(self.constants.timing.byte_period_s)

    def _charge_radio(self, duration_s: float, state: RadioState, phase: str) -> None:
        """Move the radio to ``state`` and dwell ``duration_s``, tagging ``phase``."""
        self.radio.transition_to(state, phase=phase)
        if duration_s > 0:
            self.radio.dwell(duration_s, phase=phase)

    # -- main process ------------------------------------------------------------------
    def _run(self):
        beacon_interval = self.config.beacon_interval_s
        wake_lead = T_SHUTDOWN_TO_IDLE_POLICY_S

        # Align with the coordinator: the first beacon is emitted at t = 0,
        # subsequent ones every beacon interval.  The node sleeps up to each
        # wake-up point, then follows the activation policy.
        next_beacon_s = 0.0
        beacon_index = 0
        while True:
            # ---- sleep until the pre-beacon wake-up --------------------------------
            wake_time = max(self.env.now, next_beacon_s - wake_lead)
            sleep_duration = wake_time - self.env.now
            if sleep_duration > 0:
                self._charge_radio(sleep_duration, RadioState.SHUTDOWN, PHASE_SLEEP)
                yield self.env.timeout(sleep_duration)

            # ---- wake up and listen to the beacon ----------------------------------
            # The shutdown->idle transition (~1 ms) is charged to the beacon
            # phase; any residual lead time is spent in idle.
            self.radio.transition_to(RadioState.IDLE, phase=PHASE_BEACON)
            startup_wait = next_beacon_s - self.env.now
            if startup_wait > 0:
                self.radio.dwell(startup_wait, phase=PHASE_BEACON)
                yield self.env.timeout(startup_wait)

            superframe = self.coordinator.current_superframe
            beacon_airtime = superframe.beacon_airtime_s
            self._charge_radio(beacon_airtime, RadioState.RX, PHASE_BEACON)
            yield self.env.timeout(beacon_airtime)
            self.radio.transition_to(RadioState.IDLE, phase=PHASE_BEACON)
            self.counters.increment("beacons_received")

            # ---- uplink transaction -------------------------------------------------
            if self._take_packet(beacon_index):
                yield from self._stagger_delay(superframe, wake_lead)
                yield from self._uplink_transaction(superframe)

            # ---- shutdown until the next wake-up -------------------------------------
            next_beacon_s += beacon_interval
            beacon_index += 1
            self.radio.transition_to(RadioState.SHUTDOWN, phase=PHASE_SLEEP)

    def _take_packet(self, beacon_index: int) -> bool:
        """Whether a packet is sendable this superframe; takes it if so.

        The packets gained at the superframe boundary join the backlog —
        data sensed by the beacon instant is sendable in the superframe
        the beacon starts.  The packet taken is committed to this
        superframe's single transaction attempt (delivered, failed or
        deferred).
        """
        self._backlog += self.arrivals[beacon_index]
        if not self._backlog:
            self.counters.increment("superframes_without_traffic")
            return False
        self._backlog -= 1
        return True

    def _stagger_delay(self, superframe: Superframe, wake_lead: float):
        """Shut down until a random transaction start within the CAP.

        The node keeps enough margin at the end of the contention access
        period for a worst-case contention (three maximum backoff windows),
        the data frame and the acknowledgement exchange.
        """
        constants = self.constants
        slot_s = constants.unit_backoff_period_s
        margin = (56 * slot_s + self.packet_airtime_s
                  + constants.ack_wait_duration_s)
        latest_start = superframe.active_end_time_s - margin
        earliest_start = self.env.now
        if latest_start <= earliest_start + wake_lead:
            return
        start = float(self.rng.uniform(earliest_start + wake_lead, latest_start))
        sleep_duration = start - self.env.now - wake_lead
        if sleep_duration > 0:
            self._charge_radio(sleep_duration, RadioState.SHUTDOWN, PHASE_SLEEP)
            yield self.env.timeout(sleep_duration)
        # Wake the chip back up ahead of the transaction (second shutdown ->
        # idle transition of the superframe; small but accounted).
        self.radio.transition_to(RadioState.IDLE, phase=PHASE_CONTENTION)
        self._charge_radio(wake_lead, RadioState.IDLE, PHASE_CONTENTION)
        yield self.env.timeout(wake_lead)

    def _uplink_transaction(self, superframe: Superframe):
        """Run the contention / transmit / acknowledge cycle for one packet."""
        constants = self.constants
        slot_s = constants.unit_backoff_period_s
        byte_period = constants.timing.byte_period_s
        frame = self._build_data_frame()
        frame_airtime = frame.airtime_s(byte_period)
        ack_airtime = AckFrame().airtime_s(byte_period)
        self.counters.increment("packets_attempted")

        for _ in range(constants.max_transmissions):
            # ---- contention ------------------------------------------------------
            csma = SlottedCsmaCa(self.csma_params, rng=self.rng)
            instruction = csma.begin()
            access_granted = False
            while True:
                if instruction.action is CsmaAction.WAIT_BACKOFF:
                    wait_s = instruction.slots * slot_s
                    if wait_s > 0:
                        self._charge_radio(wait_s, RadioState.IDLE, PHASE_CONTENTION)
                        yield self.env.timeout(wait_s)
                    instruction = csma.backoff_elapsed()
                elif instruction.action is CsmaAction.PERFORM_CCA:
                    # Abort if the CCA (and a subsequent transmission) can no
                    # longer fit in the contention access period.
                    if not superframe.in_cap(self.env.now):
                        self.counters.increment("transactions_deferred")
                        return
                    # Turn the receiver on for one backoff slot to sense.
                    self._charge_radio(slot_s, RadioState.RX, PHASE_CONTENTION)
                    yield self.env.timeout(slot_s)
                    busy = self.medium.is_busy()
                    self.radio.transition_to(RadioState.IDLE, phase=PHASE_CONTENTION)
                    self.counters.increment("cca_performed")
                    if busy:
                        self.counters.increment("cca_busy")
                    instruction = csma.cca_result(busy)
                elif instruction.action is CsmaAction.TRANSMIT:
                    access_granted = True
                    break
                elif instruction.action is CsmaAction.FAILURE:
                    break
                else:  # pragma: no cover - defensive
                    raise RuntimeError(f"Unknown CSMA action {instruction.action}")

            if not access_granted:
                self.counters.increment("channel_access_failures")
                return

            if not superframe.transaction_fits_in_cap(
                    self.env.now,
                    frame_airtime + constants.turnaround_time_s + ack_airtime):
                self.counters.increment("transactions_deferred")
                return

            # ---- transmit the data frame ---------------------------------------------
            self.counters.increment("frames_transmitted")
            self.radio.transition_to(RadioState.TX, phase=PHASE_TRANSMIT)
            if self.tx_power_dbm is not None:
                self.radio.set_tx_level(self.tx_power_dbm)
            transmission = self.medium.start_transmission(
                source=self.node_id,
                duration_s=frame_airtime,
                frame=frame,
                tx_power_dbm=self.radio.tx_level_dbm,
            )
            self.radio.dwell(frame_airtime, phase=PHASE_TRANSMIT)
            yield self.env.timeout(frame_airtime)
            self.radio.transition_to(RadioState.IDLE, phase=PHASE_TRANSMIT)

            # ---- acknowledgement ------------------------------------------------------
            acked = self.coordinator.frame_received(transmission)
            # Idle during the minimum turnaround (t-ack), then receive.
            self._charge_radio(constants.turnaround_time_s, RadioState.IDLE, PHASE_ACK)
            yield self.env.timeout(constants.turnaround_time_s)
            if acked:
                self._charge_radio(ack_airtime, RadioState.RX, PHASE_ACK)
                yield self.env.timeout(ack_airtime)
                self.radio.transition_to(RadioState.IDLE, phase=PHASE_ACK)
                self.counters.increment("packets_delivered")
                self.delays.record(self.env.now - superframe.beacon_time_s)
                return
            # No acknowledgement: listen until t+ack expires, then retry.
            residual_wait = max(0.0, constants.ack_wait_duration_s
                                - constants.turnaround_time_s)
            self._charge_radio(residual_wait, RadioState.RX, PHASE_ACK)
            yield self.env.timeout(residual_wait)
            self.radio.transition_to(RadioState.IDLE, phase=PHASE_ACK)
            self.counters.increment("acks_missed")

        # All transmissions exhausted without an acknowledgement.
        self.counters.increment("packets_failed")
