"""Workload ``service_jobs``: the simulation service under a closed loop.

A real ``python -m repro serve --port 0 --workers 2 --backend shared``
process serves one closed-loop client: a single thread on one keep-alive
HTTP connection that submits a spec (all its copies), polls until the
result is fetched, then submits the next.  A second job in flight would
raise throughput, but its latency and throughput then depend on how two
workers share the interpreter lock, and runs spread far more.  This is the
only workload that crosses HTTP, the sqlite job store, the worker poll loop
and the shared cache backend's locks.

One pass is two waves.  Wave 1 submits each of six ``case_study_full`` run
specs three times in a row (the copies must dedup onto one job id): four at
full scale (star/saturated, Poisson, duty-cycled SO < BO, and a grid
topology with three hops, which brings in placement and routing), and two
points of the quick ``case_study_power_grid`` sweep.  Wave 2 submits that
sweep, so a worker serves those two points from the shared cache and
computes the rest.  Every pass uses fresh seeds and its own payload size,
so its jobs are new to the store and the cache.
"""

from __future__ import annotations

import http.client
import json
import select
import signal
import subprocess
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (CHILD_TIMEOUT_S, Context, Outcome, derive_seed,
                    interleave, median, more_passes, overhead_ratio,
                    pid_peak_rss_mb)
from probes import Ledger, Probe, install_engine_probes, \
    install_service_probes, spans_from_export

WORKERS = 2
#: Distinct jobs the client keeps outstanding (closed loop).
WINDOW = 1
COPIES = 3
SETUP_STARTS = 5
POLL_SLEEP_S = 0.005
SWEEP = "case_study_power_grid"

#: Extra run parameters of the full-scale specs (``tiny``: scaled down).
FULL_SPECS = ({}, {"traffic_model": "poisson"}, {"superframe_order": 4},
              {"topology": "grid", "max_hops": 3})
TINY_BASE = {"total_nodes": 32, "num_channels": 2, "superframes": 3}
OVERLAP_POINTS = 2


def _quick_grid():
    from repro.api import Session
    return Session(cache=False).sweep_spec(SWEEP, quick=True)


def pass_submissions(ctx: Context, index: int, grid) -> List[Dict[str, Any]]:
    """Submission payloads of pass ``index`` in order (wave 1 then the
    sweep), each wave-1 spec ``COPIES`` times in a row."""
    payload_bytes = 120 - index % 100
    specs = []
    for number, extra in enumerate(FULL_SPECS):
        params = dict(extra)
        if ctx.size == "tiny":
            params.update(TINY_BASE)
        specs.append({"kind": "run", "name": "case_study_full",
                      "params": params,
                      "seed": derive_seed(ctx.seed, index, number)})
    values = grid.expand_axes()
    start = derive_seed(ctx.seed, index, "overlap") % len(values)
    for offset in range(OVERLAP_POINTS):
        point = values[(start + offset) % len(values)]
        specs.append({"kind": "run", "name": "case_study_full",
                      "params": {**grid.base_params,
                                 "payload_bytes": payload_bytes, **point},
                      "seed": grid.seed})
    submissions = [spec for spec in specs for _ in range(COPIES)]
    submissions.append({"kind": "sweep", "name": SWEEP, "quick": True,
                        "params": {"payload_bytes": payload_bytes}})
    return submissions


class Client:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection("127.0.0.1", port,
                                                     timeout=CHILD_TIMEOUT_S)

    def request(self, method: str, path: str,
                body: Any = None) -> Tuple[int, str]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data else {}
        self.connection.request(method, path, body=data, headers=headers)
        reply = self.connection.getresponse()
        return reply.status, reply.read().decode("utf-8")

    def close(self) -> None:
        self.connection.close()


def run_pass(client: Client, submissions: List[Dict[str, Any]],
             outcome: Outcome, stats: Dict[str, Any]) -> Tuple[float, int]:
    """Drive one pass; returns ``(wall_s, distinct_jobs)``.

    Each submission is one operation.  It fails when its copies do not
    share a job id, when its job fails, or when its result does not parse.
    Latencies (submit to result fetched) go to ``stats["latencies"]``.
    """
    outstanding: Dict[str, List[float]] = {}
    id_of: Dict[str, str] = {}
    distinct = set()

    def poll() -> None:
        progressed = False
        for job_id in list(outstanding):
            status, text = client.request("GET", f"/v1/jobs/{job_id}")
            state = json.loads(text).get("state") if status == 200 else None
            if state not in ("done", "failed", "cancelled"):
                continue
            progressed = True
            ok = False
            if state == "done":
                start = time.perf_counter()
                status, text = client.request("GET",
                                              f"/v1/jobs/{job_id}/result")
                fetched = time.perf_counter()
                stats["fetch_s"] += fetched - start
                try:
                    ok = status == 200 and json.loads(text) is not None
                except json.JSONDecodeError:
                    ok = False
            else:
                fetched = time.perf_counter()
            for submitted in outstanding.pop(job_id):
                stats["latencies"].append(fetched - submitted)
                outcome.op(ok, f"job {job_id[:12]} ended {state}")
        if not progressed:
            time.sleep(POLL_SLEEP_S)

    first = time.perf_counter()
    for payload in submissions:
        identity = json.dumps(payload, sort_keys=True)
        if identity not in id_of:
            while len(outstanding) >= WINDOW:
                poll()
        submitted = time.perf_counter()
        status, text = client.request("POST", "/v1/jobs", payload)
        receipt = json.loads(text) if status in (200, 201) else {}
        job_id = receipt.get("job_id")
        stats["submissions"] += 1
        if job_id is None or id_of.setdefault(identity, job_id) != job_id:
            outcome.op(False, f"submission not deduplicated ({status})")
            continue
        if not receipt.get("created"):
            stats["duplicates"] += 1
        distinct.add(job_id)
        outstanding.setdefault(job_id, []).append(submitted)
    while outstanding:
        poll()
    return time.perf_counter() - first, len(distinct)


def _new_stats() -> Dict[str, Any]:
    return {"latencies": [], "fetch_s": 0.0, "submissions": 0,
            "duplicates": 0}


def drive(ctx: Context, port: int, outcome: Outcome, stats: Dict[str, Any],
          pass_index: int, grid) -> Tuple[float, int]:
    client = Client(port)
    try:
        return run_pass(client, pass_submissions(ctx, pass_index, grid),
                        outcome, stats)
    finally:
        client.close()


# -- the serve subprocess --------------------------------------------------------

def start_server(ctx: Context) -> Tuple[subprocess.Popen, int, float]:
    """Start ``repro serve`` on fresh dirs: ``(process, port, setup_s)``,
    setup being the wall from spawn to the listening line."""
    cache = ctx.fresh_dir("service-cache")
    start = time.perf_counter()
    process = subprocess.Popen(
        [ctx.python, "-m", "repro", "serve", "--port", "0", "--workers",
         str(WORKERS), "--backend", "shared", "--cache-dir", str(cache),
         "--store", str(cache / "jobs.sqlite")],
        env=ctx.env, cwd=str(ctx.root), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL)
    ready, _, _ = select.select([process.stdout], [], [], CHILD_TIMEOUT_S)
    line = process.stdout.readline().decode("utf-8") if ready else ""
    setup = time.perf_counter() - start
    if "listening on http://" not in line:
        stop_server(process)
        raise RuntimeError(f"repro serve did not start: {line!r}")
    port = int(line.split("listening on http://", 1)[1].split()[0]
               .rsplit(":", 1)[1])
    return process, port, setup


def stop_server(process: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then kill if it does not exit."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()


def measure(ctx: Context) -> Tuple[Outcome, float]:
    """Untraced run against a ``repro serve`` subprocess.

    Returns the outcome and ``setup_s``, the median over several server
    starts; the last server started serves the passes.
    """
    grid = _quick_grid()
    setups = []
    for _ in range(SETUP_STARTS - 1):
        process, _, setup = start_server(ctx)
        stop_server(process)
        setups.append(setup)
    process, port, setup = start_server(ctx)
    setups.append(setup)
    outcome = Outcome()
    stats = _new_stats()
    try:
        deadline = time.perf_counter() + ctx.seconds
        walls, rates, jobs = [], [], 0
        while more_passes(walls, deadline):
            wall, distinct = drive(ctx, port, outcome, stats, len(rates),
                                   grid)
            walls.append(wall)
            rates.append(distinct / wall)
            jobs += distinct
        peak = pid_peak_rss_mb(process.pid)
    finally:
        stop_server(process)
    outcome.metrics = {"work_per_s": median(rates),
                       "op_p50_s": median(stats["latencies"]),
                       "peak_rss_mb": peak or 0.0}
    outcome.notes.append(f"{len(rates)} pass(es), {jobs} distinct jobs, "
                         f"{stats['submissions']} submissions")
    return outcome, median(setups)


# -- in-process host (traced run) ------------------------------------------------

class Host:
    """The objects ``repro serve`` builds, hosted in this process."""

    def __init__(self, ctx: Context):
        from repro.api import Session, resolve_backend
        from repro.service.http import ServiceState, make_server
        from repro.service.store import JobStore
        from repro.service.worker import WorkerPool
        cache = ctx.fresh_dir("service-host")
        backend = resolve_backend("shared", str(cache))
        store = JobStore(cache / "jobs.sqlite")
        options = {"backend": backend, "jobs": 1}
        self.pool = WorkerPool(store, lambda: Session(**options),
                               workers=WORKERS)
        self.server = make_server(ServiceState(Session(**options), store,
                                               self.pool), "127.0.0.1", 0)
        self.port = self.server.server_address[1]
        self.pool.start()
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.pool.stop()
        self.thread.join(timeout=CHILD_TIMEOUT_S)


def hosted_pass(ctx: Context, outcome: Outcome, stats: Dict[str, Any],
                index: int, grid, probe: Optional[Probe]
                ) -> Tuple[float, Optional[List[Dict[str, Any]]]]:
    """One pass against a fresh in-process host; with a ``probe``, the
    wrappers are installed and the worker tracers' exports returned."""
    if probe is not None:
        install_engine_probes(probe)
        install_service_probes(probe)
    try:
        host = Host(ctx)
        try:
            wall, _ = drive(ctx, host.port, outcome, stats, index, grid)
        finally:
            host.close()
    finally:
        if probe is not None:
            probe.restore()
    exports = [worker.tracer.export() for worker in host.pool.workers]
    return wall, (exports if probe is not None else None)


def measure_traced(ctx: Context) -> Outcome:
    """Per-layer run on the in-process host, plain and probed passes
    alternating.

    The attributed timeline is the pool's capacity, workers x wall: layer
    self times come from the worker tracers and the claim/finish wrappers,
    and the remainder is worker idle time.
    """
    grid = _quick_grid()
    outcome = Outcome()
    ledger = Ledger()
    probe = Probe()
    stats = _new_stats()

    def plain(pair: int) -> float:
        return hosted_pass(ctx, outcome, _new_stats(), pair, grid, None)[0]

    def traced(pair: int) -> float:
        wall, exports = hosted_pass(ctx, outcome, stats, pair, grid, probe)
        for export in exports:
            ledger.add_tree(spans_from_export(export), export["counters"])
        return wall

    plain_walls, traced_walls = interleave(plain, traced, ctx.seconds)
    ledger.self_s["service"] += (probe.totals.get("service.claim", 0.0)
                                 + probe.totals.get("service.finish", 0.0))
    outcome.metrics = ledger.metrics(
        WORKERS * sum(traced_walls),
        overhead_ratio=overhead_ratio(plain_walls, traced_walls),
        service={"submit_s": probe.totals.get("service.submit", 0.0),
                 "queue_wait_s": probe.counters.get("queue_wait_s", 0.0),
                 "fetch_s": stats["fetch_s"],
                 "dedup_ratio": stats["duplicates"] / stats["submissions"]})
    return outcome
