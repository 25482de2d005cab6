"""Analysis and reporting utilities.

Plot-free (terminal friendly) helpers used by the experiment drivers, the
engine and the examples:

* :mod:`repro.analysis.tables` — fixed-width ASCII tables;
* :mod:`repro.analysis.series` — named (x, y) series containers standing in
  for the paper's figures;
* :mod:`repro.analysis.report` — experiment report assembly (paper value vs
  measured value, relative error, pass/fail against a tolerance band).

The names resolve on first access, so the CLI's table and row writers load
without the numpy-backed series module.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.tables": ("format_table",),
    "repro.analysis.series": ("Series", "SeriesCollection"),
    "repro.analysis.report": ("ComparisonRow", "ExperimentReport"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
