"""IEEE 802.15.4 medium access control layer (beacon-enabled star network).

The MAC substrate implements what the paper's scenario relies on:

* superframe structure (beacon order / superframe order, 16 slots,
  contention access period, contention-free period with GTS)
  — :mod:`repro.mac.superframe`;
* MAC frame formats with the byte-accurate overhead accounting used in
  equation (3) (frame control, sequence number, addressing, FCS)
  — :mod:`repro.mac.frames`;
* the slotted CSMA/CA algorithm with its backoff exponent, contention
  window and channel-access-failure reporting, including the optional
  battery-life-extension mode — :mod:`repro.mac.csma`;
* guaranteed time slot (GTS) management — :mod:`repro.mac.gts`;
* indirect (downlink) transmission queue — :mod:`repro.mac.indirect`;
* node-side and coordinator-side MAC entities tying everything together on
  top of the discrete-event kernel, used for packet-level validation of the
  analytical model — :mod:`repro.mac.device`, :mod:`repro.mac.coordinator`;
* the batched lockstep uplink kernel, which simulates many independent
  channel lanes at once — :mod:`repro.mac.vectorized`.
"""

from repro.mac.commands import (
    AssociationService,
    AssociationStatus,
    CommandFrame,
    CommandType,
)
from repro.mac.constants import MacConstants, MAC_2450MHZ
from repro.mac.csma import (
    BatteryLifeExtensionError,
    CsmaParameters,
    CsmaResult,
    CsmaOutcome,
    SlottedCsmaCa,
)
from repro.mac.frames import (
    AckFrame,
    AddressingMode,
    BeaconFrame,
    DataFrame,
    MacFrame,
    mac_overhead_bytes,
    total_packet_overhead_bytes,
)
from repro.mac.gts import GtsDescriptor, GtsManager
from repro.mac.indirect import IndirectQueue, PendingTransaction
from repro.mac.superframe import Superframe, SuperframeConfig
from repro.mac.vectorized import BatchedChannelSimulator, ChannelLane

__all__ = [
    "AssociationService",
    "AssociationStatus",
    "CommandFrame",
    "CommandType",
    "MacConstants",
    "MAC_2450MHZ",
    "CsmaParameters",
    "CsmaResult",
    "CsmaOutcome",
    "SlottedCsmaCa",
    "BatteryLifeExtensionError",
    "MacFrame",
    "BeaconFrame",
    "DataFrame",
    "AckFrame",
    "AddressingMode",
    "mac_overhead_bytes",
    "total_packet_overhead_bytes",
    "GtsDescriptor",
    "GtsManager",
    "IndirectQueue",
    "PendingTransaction",
    "Superframe",
    "SuperframeConfig",
    "BatchedChannelSimulator",
    "ChannelLane",
]
