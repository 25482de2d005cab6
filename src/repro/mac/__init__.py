"""IEEE 802.15.4 medium access control layer (beacon-enabled star network).

The MAC substrate implements what the paper's scenario relies on:

* superframe structure (beacon order / superframe order, 16 slots, the
  contention access period filling the active portion)
  — :mod:`repro.mac.superframe`;
* MAC frame formats with the byte-accurate overhead accounting used in
  equation (3) (frame control, sequence number, addressing, FCS)
  — :mod:`repro.mac.frames`;
* the slotted CSMA/CA algorithm with its backoff exponent, contention
  window and channel-access-failure reporting, including the optional
  battery-life-extension mode — :mod:`repro.mac.csma`;
* the event kernel: node-side and coordinator-side MAC entities on a
  shared medium, on top of the discrete-event kernel — the semantic oracle
  with a per-device timeline that validates the analytical model and the
  batched kernel — :mod:`repro.mac.device`, :mod:`repro.mac.coordinator`,
  :mod:`repro.mac.medium`;
* the batched lockstep uplink kernel, which simulates many independent
  channel lanes at once — :mod:`repro.mac.vectorized`.

Both kernels run the paper's scenario only: one uplink packet per
superframe through slotted CSMA/CA in the contention access period (the
paper's Section 2 rules guaranteed time slots out for dense networks; see
``docs/experiments.md``).

The names resolve on first access: reaching :mod:`repro.mac.constants`
loads neither the kernels nor numpy.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.mac.constants": ("MacConstants", "MAC_2450MHZ"),
    "repro.mac.csma": ("CsmaParameters", "CsmaResult", "CsmaOutcome",
                       "SlottedCsmaCa", "BatteryLifeExtensionError"),
    "repro.mac.frames": ("MacFrame", "BeaconFrame", "DataFrame", "AckFrame",
                         "AddressingMode", "mac_overhead_bytes",
                         "total_packet_overhead_bytes"),
    "repro.mac.superframe": ("Superframe", "SuperframeConfig"),
    "repro.mac.vectorized": ("BatchedChannelSimulator", "ChannelLane"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
