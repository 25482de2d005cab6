"""Analysis and reporting utilities.

Plot-free (terminal friendly) helpers used by the experiment drivers, the
examples and the benchmark harness:

* :mod:`repro.analysis.tables` — fixed-width ASCII tables;
* :mod:`repro.analysis.series` — named (x, y) series containers standing in
  for the paper's figures;
* :mod:`repro.analysis.sweep` — generic parameter-sweep runner;
* :mod:`repro.analysis.report` — experiment report assembly (paper value vs
  measured value, relative error, pass/fail against a tolerance band);
* :mod:`repro.analysis.keys` — type-aware value keys (``bool`` never
  conflated with ``int``) shared by every row grouping/filtering helper.

The names resolve on first access, so the CLI's table and row writers load
without the numpy-backed series module.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.tables": ("format_table",),
    "repro.analysis.keys": ("typed_key", "values_equal"),
    "repro.analysis.series": ("Series", "SeriesCollection"),
    "repro.analysis.sweep": ("ParameterSweep", "SweepResult"),
    "repro.analysis.report": ("ComparisonRow", "ExperimentReport"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
