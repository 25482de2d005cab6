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

An optimizer run (:class:`repro.sweep.optimize.OptimizeResult`) exports
through the same function with its own layout — no long table, the front
and knee in the JSON, and every round's proposals and the stop reason in
the manifest::

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
from repro.sweep.analysis import require_metrics
from repro.sweep.driver import SweepRunResult
from repro.sweep.optimize import OptimizeResult


def sweep_manifest(result: SweepRunResult) -> Dict[str, Any]:
    """Everything needed to reproduce (and verify) a run's exports.

    Contains the full spec payload and its stable hash, the code-version
    token, the master seed, and every point's parameters and engine cache
    key; an optimizer run adds its trajectory (each round's proposals,
    point indices and Pareto front) and its stop reason.  Deliberately
    excludes wall-clock and cache-hit diagnostics: two runs of the same
    spec on the same code — a warm re-run served from the cache included
    — produce identical manifests.
    """
    spec = result.spec
    manifest = {
        "kind": f"repro-{result.kind}-manifest",
        result.kind: spec.to_payload(),
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
    if isinstance(result, OptimizeResult):
        manifest.update(stop_reason=result.stop_reason,
                        rounds=[round_.to_payload()
                                for round_ in result.rounds])
    return manifest


def _json_text(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def sweep_json_text(result: SweepRunResult) -> str:
    """The combined artifact as deterministic JSON text: the manifest and
    the wide rows, plus the long rows of a sweep or the front and knee of
    an optimizer run.

    Byte-identical to the ``<name>.json`` file :func:`export_sweep`
    writes — the canonical machine-readable form of one run, which is
    also what the service layer serves for finished sweep jobs.
    """
    payload = {"manifest": sweep_manifest(result), "rows": list(result.rows)}
    if isinstance(result, OptimizeResult):
        payload.update(front=result.front(), knee=result.knee())
    else:
        payload["long_rows"] = result.long_rows()
    return _json_text(payload)


def export_sweep(result: SweepRunResult, out_dir: os.PathLike,
                 name: Optional[str] = None) -> Dict[str, Path]:
    """Write the run's CSV/JSON tables and manifest into ``out_dir``.

    Returns the written paths keyed by artifact kind (``"csv"``,
    ``"long_csv"`` — sweeps only —, ``"json"``, ``"manifest"``).  Exports
    are byte-for-byte reproducible for a fixed spec and code version,
    including across warm re-runs served entirely from the result cache.

    An objective of the spec that *no point produced* raises
    :class:`repro.sweep.analysis.UnknownMetricError` (with did-you-mean
    suggestions over the observed metric names) instead of silently
    exporting ``None`` columns that the Pareto helpers would count as
    worst-possible values.
    """
    spec = result.spec
    require_metrics(spec.objectives, result.metric_names,
                    context=f"{result.kind} {spec.name!r} export")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = name or spec.name
    wide_columns = ["point"] + spec.axis_names() + list(result.metric_names)
    paths = {"csv": write_rows(result.rows, out_dir / f"{name}.csv",
                               fmt="csv", columns=wide_columns)}
    if not isinstance(result, OptimizeResult):
        paths["long_csv"] = write_rows(result.long_rows(),
                                       out_dir / f"{name}.long.csv",
                                       fmt="csv")
    paths["json"] = out_dir / f"{name}.json"
    paths["manifest"] = out_dir / f"{name}.manifest.json"
    paths["json"].write_text(sweep_json_text(result), encoding="utf-8")
    paths["manifest"].write_text(_json_text(sweep_manifest(result)),
                                 encoding="utf-8")
    return paths
