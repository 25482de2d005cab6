"""Empirical characterisation of the slotted CSMA/CA contention procedure.

The analytical energy model of the paper (Section 4) is driven by four
quantities that "depend mainly on the network load λ and the packet
duration" and are "characterised empirically by Monte-Carlo simulation of
the contention procedure" (Figure 6):

* the average contention duration ``T_cont``,
* the average number of clear channel assessments ``N_CCA``,
* the residual collision probability ``Pr_col``, and
* the channel access failure probability ``Pr_cf``.

This package provides

* :mod:`repro.contention.monte_carlo` — a slot-accurate Monte-Carlo
  simulator of the contention access period (100 nodes per channel by
  default, matching the paper);
* :mod:`repro.contention.statistics` — the result containers and
  aggregation helpers;
* :mod:`repro.contention.tables` — characterisation tables over a
  (load, packet size) grid with bilinear interpolation, which is how the
  energy model consumes the characterisation without re-running the
  Monte-Carlo for every query; ``build_contention_table()`` is the paper
  grid with one seeded Monte-Carlo task per point, the same table the
  engine's experiments read;
* :mod:`repro.contention.analytical` — a closed-form approximation of the
  same four quantities, used as an ablation baseline for the Monte-Carlo
  characterisation.

The names resolve on first access.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.contention.monte_carlo": ("ContentionSimulator", "WindowResult"),
    "repro.contention.statistics": ("ContentionStatistics",
                                    "merge_statistics"),
    "repro.contention.tables": ("ContentionTable", "build_contention_table"),
    "repro.contention.analytical": ("ClosedFormContentionModel",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
