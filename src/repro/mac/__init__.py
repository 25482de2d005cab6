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

The names resolve on first access: reaching :mod:`repro.mac.constants`
loads neither the kernels nor numpy.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.mac.commands": ("AssociationService", "AssociationStatus",
                           "CommandFrame", "CommandType"),
    "repro.mac.constants": ("MacConstants", "MAC_2450MHZ"),
    "repro.mac.csma": ("CsmaParameters", "CsmaResult", "CsmaOutcome",
                       "SlottedCsmaCa", "BatteryLifeExtensionError"),
    "repro.mac.frames": ("MacFrame", "BeaconFrame", "DataFrame", "AckFrame",
                         "AddressingMode", "mac_overhead_bytes",
                         "total_packet_overhead_bytes"),
    "repro.mac.gts": ("GtsDescriptor", "GtsManager"),
    "repro.mac.indirect": ("IndirectQueue", "PendingTransaction"),
    "repro.mac.superframe": ("Superframe", "SuperframeConfig"),
    "repro.mac.vectorized": ("BatchedChannelSimulator", "ChannelLane"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
