"""IEEE 802.15.4 physical layer model (2450 MHz O-QPSK/DSSS PHY).

The package covers everything the paper's analysis needs from the PHY:

* timing constants (2 Mchip/s, 16 µs symbol, 32 µs byte, 250 kbit/s,
  20-symbol backoff slot) — :mod:`repro.phy.constants`;
* the O-QPSK / DSSS symbol-to-chip mapping used both for completeness and to
  derive the analytic DSSS bit-error-rate — :mod:`repro.phy.modulation`;
* PHY protocol data unit (PPDU) framing sizes: preamble, start-of-frame
  delimiter and frame-length field — :mod:`repro.phy.frame`;
* bit/packet error models: the paper's empirical exponential regression
  (equation 1) and an analytic AWGN model of the DSSS receiver, plus the
  packet-error conversion of equation (10) — :mod:`repro.phy.error_model`;
* the channel page / frequency band catalogue (2450 MHz, 915 MHz, 868 MHz)
  — :mod:`repro.phy.bands`.

The names resolve on first access.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.phy.bands": ("Band", "CHANNEL_PAGES", "channels_in_band"),
    "repro.phy.constants": ("PhyTiming", "TIMING_2450MHZ"),
    "repro.phy.error_model": ("ErrorModel", "EmpiricalBerModel",
                              "AnalyticOqpskErrorModel",
                              "packet_error_probability"),
    "repro.phy.frame": ("PHY_PREAMBLE_BYTES", "PHY_SFD_BYTES",
                        "PHY_HEADER_BYTES"),
    "repro.phy.modulation": ("OqpskDsssModulator", "CHIP_SEQUENCES"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
