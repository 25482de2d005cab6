"""Experiment drivers — one per figure/table of the paper plus the case study.

Every driver regenerates the data behind one artefact of the paper's
evaluation and returns

* one or more :class:`repro.analysis.series.SeriesCollection` (the figure's
  curves), and
* an :class:`repro.analysis.report.ExperimentReport` comparing the paper's
  stated numbers with the reproduced ones.

The engine's adapters (:mod:`repro.runner.drivers`) run these drivers and
turn their reports into result rows.  Figure 6 has no driver here: its
adapter characterises the (payload, load) grid directly, one seeded
Monte-Carlo task per point.

=================  ======================================================
Driver             Paper artefact
=================  ======================================================
``fig3_radio``     Figure 3 — CC2420 state powers and transitions
``fig4_ber``       Figure 4 — bit-error rate vs received power
``fig7_link``      Figure 7 — optimal energy per bit vs path loss
``fig8_packet``    Figure 8 — energy per bit vs payload size
``fig9_breakdown`` Figure 9 — energy / time breakdowns
``case_study``     Section 5 — 211 µW / 1.45 s / 16 % headline numbers
``improvements``   Section 5/6 — improvement perspectives (−12 %, −15 %)
``validation``     Model vs packet-level simulation cross-check
=================  ======================================================

The names resolve on first access, so reaching one driver loads none of
the others.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.experiments.fig3_radio": ("run_fig3_radio_characterization",),
    "repro.experiments.fig4_ber": ("run_fig4_ber",),
    "repro.experiments.fig7_link": ("run_fig7_link_adaptation",),
    "repro.experiments.fig8_packet": ("run_fig8_packet_size",),
    "repro.experiments.fig9_breakdown": ("run_fig9_breakdown",),
    "repro.experiments.case_study": ("run_case_study",),
    "repro.experiments.improvements": ("run_improvements",),
    "repro.experiments.validation": ("run_model_vs_simulation",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
