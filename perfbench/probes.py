"""Timing wrappers and the per-layer ledger of a traced run.

Two sources feed the ledger:

* the spans ``repro.obs`` already records (run, cache, driver, task,
  sweep/optimize, lane, kernel, phase, job), and
* :class:`Probe` wrappers this benchmark installs on public functions the
  tracer does not cover (contention grid, network simulation, the service's
  job store).  A wrapper opens a ``bench:<layer>.<what>`` span when the
  calling thread has an active tracer, so it nests like any other span;
  calls on threads without one (the service's claim loop) are timed into
  flat totals instead.

Each wrapper patches the name where its caller looks it up:
``repro.runner.drivers`` binds ``characterize_grid`` and
``build_contention_table`` at import, ``repro.contention.tables`` imports
``characterize_grid`` from ``repro.contention.monte_carlo`` on each call, and
``repro.experiments.case_study_full`` binds ``simulate_network``.

A layer's self time is the summed duration of its spans minus the durations
of their child spans; ``task`` spans (executor envelopes) belong to the layer
that spawned them.  Root spans are not attributed, so whatever no layer
covers lands in the reported ``trace.unattributed_s`` remainder.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Layers in reporting order (``cli`` is filled by the CLI workload).
LAYERS = ("cli", "runner", "driver", "contention", "network", "mac",
          "sweep", "service")

#: Span kind -> layer; kinds not listed inherit their parent's layer.
_KIND_LAYER = {"run": "runner", "cache": "runner", "driver": "driver",
               "sweep": "sweep", "optimize": "sweep", "lane": "network",
               "kernel": "mac", "phase": "mac", "job": "service"}

#: Every registered experiment, one ``driver.<name>_s`` metric each.
EXPERIMENTS = ("case_study", "case_study_full", "contention_table",
               "fig3_radio", "fig4_ber", "fig6_csma", "fig7_link",
               "fig8_packet", "fig9_breakdown", "improvements",
               "model_vs_sim")

Counter = Callable[[tuple, dict, Any], Dict[str, float]]


class Probe:
    """Installs timing wrappers; :meth:`restore` puts the originals back."""

    def __init__(self):
        self.totals: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    def wrap(self, owner: Any, attr: str, name: str,
             count: Optional[Counter] = None) -> None:
        """Replace ``owner.attr`` by a timed wrapper reporting as ``name``."""
        from repro.obs.tracer import current_tracer
        original = getattr(owner, attr)
        probe = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer = current_tracer()
            if tracer.enabled:
                with tracer.span(f"bench:{name}", kind="bench") as span:
                    result = original(*args, **kwargs)
                    if count is not None:
                        for key, value in count(args, kwargs, result).items():
                            span.count(key, int(value))
                return result
            start = time.perf_counter()
            result = original(*args, **kwargs)
            probe._flat(name, time.perf_counter() - start,
                        count(args, kwargs, result) if count else {})
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _flat(self, name: str, seconds: float,
              counts: Dict[str, float]) -> None:
        with self._lock:
            self.totals[name] = self.totals.get(name, 0.0) + seconds
            for key, value in counts.items():
                self.counters[key] = self.counters.get(key, 0.0) + value

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _grid_points(args, kwargs, result) -> Dict[str, float]:
    return {"grid_points": len(result)}


def _deliveries(args, kwargs, result) -> Dict[str, float]:
    return {"attempted": sum(row["packets_attempted"] for row in result),
            "delivered": sum(row["packets_delivered"] for row in result)}


def _queue_wait(args, kwargs, result) -> Dict[str, float]:
    if result is None:
        return {}
    return {"queue_wait_s": max(0.0, time.time() - result.submitted_unix_s),
            "claims": 1}


def install_engine_probes(probe: Probe) -> None:
    """Wrap the contention and network entry points of the engine."""
    import repro.contention.monte_carlo as monte_carlo
    import repro.experiments.case_study_full as case_study_full
    import repro.runner.drivers as drivers
    probe.wrap(drivers, "characterize_grid", "contention.characterize_grid",
               count=_grid_points)
    probe.wrap(monte_carlo, "characterize_grid",
               "contention.characterize_grid", count=_grid_points)
    probe.wrap(drivers, "build_contention_table", "contention.build_table")
    probe.wrap(case_study_full, "simulate_network", "network.simulate",
               count=_deliveries)


def install_service_probes(probe: Probe) -> None:
    """Wrap the job store's submit/claim/finish (frontend and workers)."""
    from repro.service.store import JobStore
    probe.wrap(JobStore, "submit", "service.submit")
    probe.wrap(JobStore, "claim", "service.claim", count=_queue_wait)
    probe.wrap(JobStore, "finish", "service.finish")


def spans_from_export(export: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Spans of :meth:`repro.obs.Tracer.export` with a ``duration`` key."""
    return [dict(span, duration=span["duration_s"])
            for span in export["spans"]]


def spans_from_payload(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Spans of a written trace artifact with a ``duration`` key."""
    durations = payload["timing"]["durations_s"]
    return [dict(span, duration=durations[str(span["id"])])
            for span in payload["spans"]]


class Ledger:
    """Accumulates span trees into layer self times and layer metrics."""

    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counters: Dict[str, float] = {}
        self.sums: Dict[str, float] = {}

    def _add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def add_tree(self, spans: Iterable[Dict[str, Any]],
                 counters: Optional[Dict[str, float]] = None) -> float:
        """Attribute one span tree; returns the summed run-span duration."""
        spans = list(spans)
        by_id = {span["id"]: span for span in spans}
        child_total: Dict[int, float] = {}
        for span in spans:
            if span["parent"] is not None:
                child_total[span["parent"]] = (
                    child_total.get(span["parent"], 0.0) + span["duration"])
        layer: Dict[int, Optional[str]] = {}
        in_simulate: Dict[int, bool] = {}
        run_total = 0.0
        # Ids grow in creation order and a parent is created before its
        # children, so one forward pass sees every parent first.
        for span in spans:
            parent = span["parent"]
            kind, name = span["kind"], span["name"]
            if parent is None:
                layer[span["id"]] = None
                in_simulate[span["id"]] = False
                continue
            if kind == "bench":
                own = name.split(":", 1)[1].split(".", 1)[0]
            else:
                own = _KIND_LAYER.get(kind, layer[parent])
            layer[span["id"]] = own
            in_simulate[span["id"]] = (in_simulate[parent]
                                       or name == "bench:network.simulate")
            duration = span["duration"]
            self_s = duration - child_total.get(span["id"], 0.0)
            if own in self.self_s:
                self.self_s[own] += self_s
            self._aggregate(span, by_id.get(parent), duration, self_s,
                            in_simulate[parent])
            if kind == "run":
                run_total += duration
        for key, value in (counters or {}).items():
            self.counters[key] = self.counters.get(key, 0.0) + value
        return run_total

    def _aggregate(self, span, parent, duration, self_s,
                   under_simulate) -> None:
        kind, name = span["kind"], span["name"]
        counters = span.get("counters") or {}
        if kind in ("cache", "driver", "bench"):
            self._add(f"{name}_s", duration)
            for key, value in counters.items():
                self._add(f"{name}.{key}", value)
        elif kind == "sweep":
            self._add("sweep.dispatch_s", duration)
        elif kind == "optimize":
            self._add("sweep.optimize_self_s", self_s)
        elif kind == "job":
            self._add("service.compute_s", duration)
        elif kind == "kernel" and name == "kernel:event":
            self._add("mac.event_kernel_s", duration)
        elif kind == "kernel":
            self._add("mac.kernel_s", duration)
            self._add("mac.kernel_calls", 1)
            if under_simulate:
                self._add("mac.kernel_in_simulate_s", duration)
            lanes = counters.get("lanes", 0)
            devices = counters.get("devices", 0)
            rounds = counters.get("rounds", 0)
            self._add("mac.lanes", lanes)
            self._add("mac.devices", devices)
            self._add("mac.rounds", rounds)
            self._add("mac.device_rounds", devices * rounds)
        elif kind == "phase" and parent is not None \
                and parent["name"] != "kernel:event":
            self._add(f"mac.{name}_s", duration)
            for key, value in counters.items():
                self._add(f"mac.{key}", value)

    def metrics(self, wall_s: float, *, cli_overhead_s: float = 0.0,
                overhead_ratio: float = 0.0,
                service: Optional[Dict[str, float]] = None
                ) -> Dict[str, float]:
        """Every per-layer metric (zero where the workload has no such
        work); ``wall_s`` is the attributed timeline the self times and
        ``trace.unattributed_s`` add up to."""
        s, c = self.sums.get, self.counters.get
        hits, misses = c("cache.hit", 0.0), c("cache.miss", 0.0)
        kernel_s = s("mac.kernel_s", 0.0)
        calls = s("mac.kernel_calls", 0.0)
        attempted = s("bench:network.simulate.attempted", 0.0)
        service = service or {}
        metrics = {
            "cli.overhead_s": cli_overhead_s,
            "runner.cache.lookup_s": s("cache.lookup_s", 0.0),
            "runner.cache.store_s": s("cache.store_s", 0.0),
            "runner.cache.hits": hits,
            "runner.cache.misses": misses,
            "runner.cache.hit_ratio": (hits / (hits + misses)
                                       if hits + misses else 0.0),
            "runner.executor.tasks": c("executor.tasks", 0.0),
        }
        for experiment in EXPERIMENTS:
            metrics[f"driver.{experiment}_s"] = s(f"driver:{experiment}_s",
                                                  0.0)
        simulate_s = s("bench:network.simulate_s", 0.0)
        metrics.update({
            "contention.characterize_grid_s":
                s("bench:contention.characterize_grid_s", 0.0),
            "contention.build_table_s":
                s("bench:contention.build_table_s", 0.0),
            "contention.grid_points":
                s("bench:contention.characterize_grid.grid_points", 0.0),
            "network.simulate_s": simulate_s,
            "network.lane_build_s":
                simulate_s - s("mac.kernel_in_simulate_s", 0.0),
            "mac.kernel_s": kernel_s,
            "mac.setup_s": s("mac.setup_s", 0.0),
            "mac.beacon_grid_s": s("mac.beacon_grid_s", 0.0),
            "mac.contention_merge_s": s("mac.contention_merge_s", 0.0),
            "mac.energy_ledger_s": s("mac.energy_ledger_s", 0.0),
            "mac.contention_merge_share":
                (s("mac.contention_merge_s", 0.0) / kernel_s
                 if kernel_s else 0.0),
            "mac.us_per_device_round":
                (1e6 * kernel_s / s("mac.device_rounds")
                 if s("mac.device_rounds") else 0.0),
            "mac.kernel_calls": calls,
            "mac.lanes": s("mac.lanes", 0.0),
            "mac.lanes_per_call": s("mac.lanes", 0.0) / calls if calls
                                  else 0.0,
            "mac.devices": s("mac.devices", 0.0),
            "mac.rounds": s("mac.rounds", 0.0),
            "mac.cca": s("mac.cca", 0.0),
            "mac.attempts": s("mac.attempts", 0.0),
            "mac.delivered_per_attempt":
                (s("bench:network.simulate.delivered", 0.0) / attempted
                 if attempted else 0.0),
            "mac.event_kernel_s": s("mac.event_kernel_s", 0.0),
            "sweep.points_computed": c("sweep.points.computed", 0.0),
            "sweep.points_cached": c("sweep.points.cached", 0.0),
            "sweep.dispatch_s": s("sweep.dispatch_s", 0.0),
            "sweep.optimize_self_s": s("sweep.optimize_self_s", 0.0),
            "service.submit_s": service.get("submit_s", 0.0),
            "service.queue_wait_s": service.get("queue_wait_s", 0.0),
            "service.compute_s": s("service.compute_s", 0.0),
            "service.fetch_s": service.get("fetch_s", 0.0),
            "service.jobs.computed": c("service.jobs.computed", 0.0),
            "service.jobs.served_from_cache":
                c("service.jobs.served_from_cache", 0.0),
            "service.dedup_ratio": service.get("dedup_ratio", 0.0),
            "obs.overhead_ratio": overhead_ratio,
        })
        attributed = 0.0
        for layer in LAYERS:
            metrics[f"self.{layer}_s"] = self.self_s[layer]
            attributed += self.self_s[layer]
        metrics["trace.wall_s"] = wall_s
        metrics["trace.unattributed_s"] = wall_s - attributed
        return metrics


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "mac.us_per_device_round":
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "per_attempt")):
        return "ratio"
    return "count"
