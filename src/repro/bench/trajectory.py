"""``BENCH_*.json`` perf-trajectory records: schema, IO and the CI gate.

One record tracks one benchmarked experiment.  The JSON object keys are
written in a fixed order (schema version first, measurements in the middle,
provenance last) so that regenerating a baseline produces a minimal diff:

``schema_version``
    Integer, currently ``1``.
``experiment``
    Name of the benchmarked workload (``BENCH_<experiment>.json``).
``mode``
    ``"full"`` for the headline baselines, ``"quick"`` for the scaled-down
    CI smoke variant (stored as ``BENCH_<experiment>_quick.json``); each
    mode gates only against its own committed baseline.
``params``
    The workload parameters the timings were measured with.
``timings_s``
    ``{kernel: {"median_s": float, "runs": int}}`` — median wall-clock
    seconds over ``runs`` repetitions, per simulation kernel.
``speedup``
    ``{"<fast>_vs_<slow>": float}`` — wall-time ratios between kernels.
    Ratios, not absolute times, are what the CI gate compares: they are
    far more portable across machines than seconds.
``phases`` (optional, ``--phases``)
    ``{kernel: {phase: seconds}}`` — per-phase wall-clock breakdown of one
    instrumented run per kernel, collected through :mod:`repro.obs`.
    Diagnostic only: the CI gate never compares it.
``git_sha`` / ``machine``
    Provenance: the short commit hash and a host fingerprint (platform,
    python, numpy, CPU count).

No timestamp is recorded on purpose — regenerating an unchanged baseline
must be a no-op diff.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

SCHEMA_VERSION = 1

#: CI regression tolerance: a measured speedup may fall to 1/2 of the
#: committed baseline's before the gate fails.
DEFAULT_TOLERANCE = 2.0


def git_sha(root: Optional[str] = None) -> str:
    """Short commit hash of ``root`` (or the cwd); ``"unknown"`` outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def machine_fingerprint() -> Dict[str, Any]:
    """Host provenance recorded alongside every measurement."""
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }


def timed_median(fn: Callable[[], Any],
                 repeats: int = 3) -> Tuple[float, int]:
    """``(median wall-clock seconds, repeats)`` of calling ``fn``."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    return float(median(samples)), repeats


def build_record(experiment: str, mode: str, params: Dict[str, Any],
                 timings_s: Dict[str, Dict[str, Any]],
                 speedup: Dict[str, float],
                 sha: Optional[str] = None,
                 machine: Optional[Dict[str, Any]] = None,
                 phases: Optional[Dict[str, Dict[str, float]]] = None
                 ) -> Dict[str, Any]:
    """Assemble a schema-ordered record from its parts."""
    if mode not in ("full", "quick"):
        raise ValueError(f"Unknown bench mode {mode!r}; "
                         f"choose 'full' or 'quick'")
    record = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "mode": mode,
        "params": dict(params),
        "timings_s": {kernel: {"median_s": float(entry["median_s"]),
                               "runs": int(entry["runs"])}
                      for kernel, entry in timings_s.items()},
        "speedup": {key: float(value) for key, value in speedup.items()},
    }
    if phases is not None:
        record["phases"] = {
            kernel: {phase: float(seconds)
                     for phase, seconds in sorted(breakdown.items())}
            for kernel, breakdown in phases.items()}
    record["git_sha"] = sha if sha is not None else git_sha()
    record["machine"] = (machine if machine is not None
                         else machine_fingerprint())
    return record


def bench_path(out_dir, experiment: str, mode: str = "full") -> Path:
    """``<out_dir>/BENCH_<experiment>.json`` (``_quick`` suffix in quick mode).

    The two modes get separate files because their speedup ratios are not
    comparable: vectorization pays off less on the scaled-down quick
    workload, so a quick run must be gated against a quick baseline.
    """
    suffix = "" if mode == "full" else f"_{mode}"
    return Path(out_dir) / f"BENCH_{experiment}{suffix}.json"


def write_record(record: Dict[str, Any], path) -> Path:
    """Write ``record`` to ``path``, guarding against cross-experiment clobber.

    Refreshing a baseline in place is normal; silently replacing the
    baseline of a *different* experiment or mode (a copy-paste slip in
    ``--out``, a renamed workload, a quick run pointed at the full
    baseline) is not, and raises ``ValueError`` before touching the file.
    """
    path = Path(path)
    if path.exists():
        existing = read_record(path)
        if existing.get("experiment") != record.get("experiment"):
            raise ValueError(
                f"{path} already holds a baseline for experiment "
                f"{existing.get('experiment')!r}; refusing to overwrite it "
                f"with {record.get('experiment')!r}")
        if existing.get("mode") != record.get("mode"):
            raise ValueError(
                f"{path} already holds a {existing.get('mode')!r}-mode "
                f"baseline; refusing to overwrite it with a "
                f"{record.get('mode')!r}-mode record")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path


def read_record(path) -> Dict[str, Any]:
    """Load a ``BENCH_*.json`` record (key order preserved)."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def compare_records(fresh: Dict[str, Any], baseline: Dict[str, Any],
                    tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Regression messages of ``fresh`` against ``baseline`` (empty = pass).

    Every speedup key of the baseline must be present in ``fresh`` and
    must not have fallen below ``baseline / tolerance``; a missing key is
    a regression, so renaming or dropping a ratio cannot silently leave
    the gate with nothing to compare.  Keys only ``fresh`` has are
    ignored.  Speedups are compared rather than wall times so a committed
    baseline can gate a CI run on a different machine.  Both records must
    be of the same experiment *and* mode — the quick workload's ratios
    are structurally smaller than the full workload's, so cross-mode
    comparison is an error, not a regression.
    """
    if tolerance < 1.0:
        raise ValueError("tolerance must be at least 1.0")
    if fresh.get("experiment") != baseline.get("experiment"):
        raise ValueError(
            f"Cannot compare experiment {fresh.get('experiment')!r} "
            f"against a baseline for {baseline.get('experiment')!r}")
    if fresh.get("mode") != baseline.get("mode"):
        raise ValueError(
            f"Cannot compare a {fresh.get('mode')!r}-mode record against "
            f"a {baseline.get('mode')!r}-mode baseline")
    problems = []
    fresh_speedups = fresh.get("speedup", {})
    for key, committed in baseline.get("speedup", {}).items():
        if key not in fresh_speedups:
            problems.append(
                f"{fresh['experiment']}: speedup {key} of the committed "
                f"baseline is missing from the fresh record")
            continue
        measured = fresh_speedups[key]
        floor = committed / tolerance
        if measured < floor:
            problems.append(
                f"{fresh['experiment']}: speedup {key} regressed to "
                f"{measured:.2f}x (committed baseline {committed:.2f}x, "
                f"tolerance floor {floor:.2f}x)")
    return problems
