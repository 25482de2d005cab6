"""Coordinator-side MAC entity for the packet-level simulation.

The coordinator (the base station of the sensor network) emits a beacon at
every beacon interval and decides which uplink data frames it receives and
therefore acknowledges.  Its own energy is not the object of the paper's
study (the base station is mains powered), so no energy ledger is attached
to it.  The paper's scenario has no downlink and no guaranteed time slots,
so every beacon advertises neither; the empty GTS and pending-address
fields still count in the beacon's length.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.channel.awgn import AwgnLink
from repro.mac.constants import MAC_2450MHZ, MacConstants
from repro.mac.frames import BeaconFrame, DataFrame
from repro.mac.medium import Medium, Transmission
from repro.mac.superframe import Superframe, SuperframeConfig
from repro.sim.engine import Environment
from repro.sim.monitor import CounterMonitor


class Coordinator:
    """PAN coordinator of a beacon-enabled star network.

    Parameters
    ----------
    env:
        Simulation environment.
    medium:
        The RF channel this coordinator manages.
    config:
        Superframe configuration (BO, SO).
    constants:
        MAC constants.
    links:
        Optional per-node AWGN links (node id -> :class:`AwgnLink`) used to
        decide bit-error corruption of received frames; frames from unknown
        nodes are assumed error-free (collisions still destroy them).
    rng:
        Random generator for corruption draws.
    """

    COORDINATOR_ID = 0

    def __init__(self, env: Environment, medium: Medium,
                 config: SuperframeConfig,
                 constants: MacConstants = MAC_2450MHZ,
                 links: Optional[Dict[int, AwgnLink]] = None,
                 rng: Optional[np.random.Generator] = None):
        self.env = env
        self.medium = medium
        self.config = config
        self.constants = constants
        self.links = links or {}
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.counters = CounterMonitor("coordinator")
        self.current_superframe: Optional[Superframe] = None
        self._sequence_number = 0
        self._process = None

    def start(self) -> None:
        """Launch the beacon process."""
        if self._process is None:
            self._process = self.env.process(self._beacon_loop())

    # -- beacon generation -----------------------------------------------------------
    def build_beacon(self) -> BeaconFrame:
        """Construct the beacon frame for the upcoming superframe."""
        return BeaconFrame(
            source=self.COORDINATOR_ID,
            sequence_number=self._next_sequence(),
            beacon_order=self.config.beacon_order,
            superframe_order=self.config.superframe_order,
        )

    def _next_sequence(self) -> int:
        self._sequence_number = (self._sequence_number + 1) % 256
        return self._sequence_number

    def _beacon_loop(self):
        byte_period = self.constants.timing.byte_period_s
        while True:
            beacon = self.build_beacon()
            beacon_airtime = beacon.airtime_s(byte_period)
            superframe = Superframe(self.config, beacon_time_s=self.env.now,
                                    beacon_airtime_s=beacon_airtime)
            self.current_superframe = superframe
            self.counters.increment("beacons_sent")
            self.medium.start_transmission(
                source=self.COORDINATOR_ID,
                duration_s=beacon_airtime,
                frame=beacon,
                tx_power_dbm=0.0,
            )
            yield self.env.timeout(self.config.beacon_interval_s)

    # -- uplink reception ---------------------------------------------------------------
    def frame_received(self, transmission: Transmission) -> bool:
        """Decide whether an uplink data frame is accepted.

        A frame is lost if it collided on the medium, or if the AWGN link of
        its source corrupts it (bit errors).  Returns ``True`` when the
        coordinator will acknowledge the frame.
        """
        frame = transmission.frame
        if not isinstance(frame, DataFrame):
            return False
        self.counters.increment("data_frames_seen")
        if transmission.collided:
            self.counters.increment("collisions")
            return False
        link = self.links.get(transmission.source)
        if link is not None:
            corrupted = link.packet_is_corrupted(
                transmission.tx_power_dbm, frame.ppdu_bytes, self.rng)
            if corrupted:
                self.counters.increment("corrupted_frames")
                return False
        self.counters.increment("data_frames_accepted")
        return True
