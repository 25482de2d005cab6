"""Artifact writers: CSV/JSON row exports and the sweep manifest.

The writers are deliberately boring — plain ``csv`` and ``json`` with fixed,
deterministic formatting — because the contract is byte-for-byte
reproducibility: running the same sweep spec twice (same axes, same seed,
same code version) must export identical files.  Nothing time- or
host-dependent is ever written; wall-clock diagnostics stay on the console.

The generic row writers live in :mod:`repro.analysis.io` (below the runner
in the layering) and are re-exported here unchanged, so single-run rows
(``run --output``, :meth:`repro.runner.result.RunResult.to_csv`) and sweep
tables serialise identically.

Layout of :func:`export_sweep`::

    <out_dir>/<name>.csv            wide rows (one line per design point)
    <out_dir>/<name>.long.csv       tidy long rows (one line per point, metric)
    <out_dir>/<name>.json           {"manifest": ..., "rows": ..., "long_rows": ...}
    <out_dir>/<name>.manifest.json  spec payload + hash, code version, seeds, keys

Layout of :func:`export_optimize` (same discipline; the manifest
additionally records every round's proposals and the front trajectory)::

    <out_dir>/<name>.csv            wide rows (one line per evaluated point)
    <out_dir>/<name>.json           {"manifest": ..., "rows": ..., "front": ..., "knee": ...}
    <out_dir>/<name>.manifest.json  spec payload + hash, rounds, stop reason, keys
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.analysis.io import write_rows
from repro.runner.cache import code_version
from repro.sweep.driver import SweepRunResult


def sweep_manifest(result: SweepRunResult) -> Dict[str, Any]:
    """Everything needed to reproduce (and verify) a sweep's exports.

    Contains the full spec payload and its stable hash, the code-version
    token, the master seed, and every point's parameters and engine cache
    key.  Deliberately excludes wall-clock and cache-hit diagnostics: two
    runs of the same spec on the same code produce identical manifests.
    """
    spec = result.spec
    return {
        "kind": "repro-sweep-manifest",
        "sweep": spec.to_payload(),
        "spec_hash": spec.spec_hash(),
        "experiment": spec.experiment,
        "seed": spec.seed,
        "code_version": code_version(),
        "num_points": len(result.points),
        "metric_names": list(result.metric_names),
        "points": [{"index": point.index,
                    "axis_values": dict(point.axis_values),
                    "params": dict(point.params),
                    "cache_key": point.cache_key}
                   for point in result.points],
    }


def manifest_text(result: SweepRunResult) -> str:
    """The manifest as deterministic JSON text."""
    return json.dumps(sweep_manifest(result), indent=2, sort_keys=True) + "\n"


def sweep_json_payload(result: SweepRunResult) -> Dict[str, Any]:
    """The combined JSON artifact payload (manifest + wide + long rows)."""
    return {"manifest": sweep_manifest(result), "rows": list(result.rows),
            "long_rows": result.long_rows()}


def sweep_json_text(result: SweepRunResult) -> str:
    """The combined artifact as deterministic JSON text.

    Byte-identical to the ``<name>.json`` file :func:`export_sweep`
    writes — the canonical machine-readable form of one sweep run, which
    is also what the service layer serves for finished sweep jobs.
    """
    return json.dumps(sweep_json_payload(result), indent=2,
                      sort_keys=True) + "\n"


def export_sweep(result: SweepRunResult, out_dir: os.PathLike,
                 name: Optional[str] = None) -> Dict[str, Path]:
    """Write the sweep's CSV/JSON tables and manifest into ``out_dir``.

    Returns the written paths keyed by artifact kind (``"csv"``,
    ``"long_csv"``, ``"json"``, ``"manifest"``).  Exports are byte-for-byte
    reproducible for a fixed spec and code version.

    An objective of the spec that *no point produced* raises
    :class:`repro.sweep.analysis.UnknownMetricError` (with did-you-mean
    suggestions over the observed metric names) instead of silently
    exporting ``None`` columns that the Pareto helpers would count as
    worst-possible values.
    """
    from repro.sweep.analysis import require_metrics
    require_metrics(result.spec.objectives, result.metric_names,
                    context=f"sweep {result.spec.name!r} export")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = name or result.spec.name
    wide_columns = (["point"] + result.spec.axis_names()
                    + list(result.metric_names))
    long_rows = result.long_rows()

    paths = {
        "csv": write_rows(result.rows, out_dir / f"{name}.csv", fmt="csv",
                          columns=wide_columns),
        "long_csv": write_rows(long_rows, out_dir / f"{name}.long.csv",
                               fmt="csv"),
        "manifest": out_dir / f"{name}.manifest.json",
        "json": out_dir / f"{name}.json",
    }
    paths["manifest"].write_text(manifest_text(result), encoding="utf-8")
    paths["json"].write_text(sweep_json_text(result), encoding="utf-8")
    return paths


def optimize_manifest(result: "OptimizeResult") -> Dict[str, Any]:
    """Everything needed to reproduce (and verify) an optimizer run.

    The optimizer sibling of :func:`sweep_manifest`: the spec payload and
    hash, the code version, every evaluated point with its engine cache
    key — plus the search trajectory (each round's proposals, point
    indices and Pareto front) and the stop reason.  Wall-clock and
    cache-hit diagnostics are deliberately excluded: a warm re-run of the
    same spec produces a byte-identical manifest.
    """
    spec = result.spec
    return {
        "kind": "repro-optimize-manifest",
        "optimize": spec.to_payload(),
        "spec_hash": spec.spec_hash(),
        "experiment": spec.experiment,
        "seed": spec.seed,
        "code_version": code_version(),
        "num_points": len(result.points),
        "metric_names": list(result.metric_names),
        "stop_reason": result.stop_reason,
        "rounds": [round_.to_payload() for round_ in result.rounds],
        "points": [{"index": point.index,
                    "axis_values": dict(point.axis_values),
                    "params": dict(point.params),
                    "cache_key": point.cache_key}
                   for point in result.points],
    }


def optimize_manifest_text(result: "OptimizeResult") -> str:
    """The optimizer manifest as deterministic JSON text."""
    return json.dumps(optimize_manifest(result), indent=2,
                      sort_keys=True) + "\n"


def optimize_json_payload(result: "OptimizeResult") -> Dict[str, Any]:
    """The combined JSON artifact payload (manifest + rows + front + knee)."""
    return {"manifest": optimize_manifest(result),
            "rows": list(result.rows),
            "front": result.front(),
            "knee": result.knee()}


def optimize_json_text(result: "OptimizeResult") -> str:
    """The combined optimizer artifact as deterministic JSON text."""
    return json.dumps(optimize_json_payload(result), indent=2,
                      sort_keys=True) + "\n"


def export_optimize(result: "OptimizeResult", out_dir: os.PathLike,
                    name: Optional[str] = None) -> Dict[str, Path]:
    """Write the optimizer run's CSV/JSON tables and manifest into ``out_dir``.

    Returns the written paths keyed by artifact kind (``"csv"``,
    ``"json"``, ``"manifest"``).  Exports are byte-for-byte reproducible
    for a fixed spec and code version — including across warm re-runs
    served entirely from the result cache.
    """
    from repro.sweep.analysis import require_metrics
    require_metrics(result.spec.objectives, result.metric_names,
                    context=f"optimize {result.spec.name!r} export")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = name or result.spec.name
    wide_columns = (["point"] + result.spec.dimension_names()
                    + list(result.metric_names))
    paths = {
        "csv": write_rows(result.rows, out_dir / f"{name}.csv", fmt="csv",
                          columns=wide_columns),
        "manifest": out_dir / f"{name}.manifest.json",
        "json": out_dir / f"{name}.json",
    }
    paths["manifest"].write_text(optimize_manifest_text(result),
                                 encoding="utf-8")
    paths["json"].write_text(optimize_json_text(result), encoding="utf-8")
    return paths
