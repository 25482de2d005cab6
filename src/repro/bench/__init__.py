"""Tracked performance trajectory of the simulation kernels.

The benchmark suite under ``benchmarks/`` asserts *relative* perf floors in
pytest; this package records the *absolute* history: each tracked
experiment owns a committed ``BENCH_<experiment>.json`` baseline (median
wall-times per kernel, kernel-vs-kernel speedups, the git SHA and a machine
fingerprint), regenerated with ``python -m repro bench`` and guarded in CI
by a quick-mode run compared against the committed speedups with a 2x
tolerance.  See :mod:`repro.bench.trajectory` for the schema and
:mod:`repro.bench.cases` for the tracked workloads.

The names resolve on first access.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.bench.trajectory": ("SCHEMA_VERSION", "bench_path",
                               "build_record", "compare_records", "git_sha",
                               "machine_fingerprint", "read_record",
                               "write_record"),
    "repro.bench.cases": ("BENCH_CASES", "run_bench_case"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
