"""CC2420 transceiver model.

This package encodes the measurement results of Section 3 of the paper
(Figure 3) as a reusable radio model:

* :mod:`repro.radio.states` — the four operating states (shutdown, idle,
  receive, transmit) and the legal transitions between them;
* :mod:`repro.radio.power_profile` — steady-state power per state, the eight
  transmit power levels with their supply currents, and the transition
  times/energies (including the worst-case rule "transition energy =
  transition time x power of the arrival state" used by the paper);
* :mod:`repro.radio.cc2420` — a stateful transceiver object with an energy
  ledger, used by the packet-level MAC simulation and by the examples;
* :mod:`repro.radio.calibration` — fitting of the empirical BER regression
  from (synthetic or measured) bit-error observations, reproducing how the
  paper derived equation (1) from the attenuator test bench.

The names resolve on first access.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.radio.states": ("RadioState", "IllegalTransitionError"),
    "repro.radio.power_profile": ("RadioPowerProfile", "StateTransition",
                                  "TxPowerLevel", "CC2420_PROFILE"),
    "repro.radio.cc2420": ("CC2420Radio", "EnergyLedger", "RadioEvent"),
    "repro.radio.calibration": ("BerCalibration", "fit_exponential_ber"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
