"""Workers that drain the job store through :class:`repro.api.Session`.

A :class:`Worker` is one claim-execute-finish loop; a :class:`WorkerPool`
runs N of them as daemon threads in one process (the ``python -m repro
serve`` topology — several ``serve`` processes pointed at one store and one
shared cache directory scale the same protocol across machines).

Execution path of one claimed job:

* **run** jobs resolve their engine cache key first and take the shared
  backend's per-key lock (when the session's cache has one) around
  ``Session.run`` — the engine double-checks the cache under the lock, so
  identical work hitting two workers is computed exactly once per cache
  directory;
* **sweep** jobs go through ``Session.sweep``; every point resumes from
  the shared cache as usual.

Each worker owns a :class:`repro.obs.Tracer` activated around its
executions (tracer activation is thread-local), so cache hit/store
counters and per-job spans attribute to the worker that did the work,
and every finished job records its queue wait (submitted to claimed) and
compute seconds as meters; :meth:`WorkerPool.metrics` merges them for
``GET /v1/metrics``.

CPUs: a fork is unsafe with the pool's threads alive, so a served job's
task fan-outs run in its worker thread.  Its large batched kernel calls
do not: the pool lends its :class:`repro.api.KernelHelpers` to each
worker thread, so such a call shares its lane pieces with the idle helper
processes (spawned as large calls ask for them, at most one per usable
CPU beyond the first, never before the first such call, and ended by
:meth:`WorkerPool.stop`).

Liveness: a background ticker heartbeats the claim while the job computes,
and every idle loop opportunistically requeues stale claims of *other*
(crashed) workers — bounded by the job's attempt budget.  Stopping a pool
is a graceful drain: workers finish the job in hand, claim nothing new,
and exit.

Latency: an idle worker sleeps at most ``poll_interval_s`` between claims,
and :meth:`WorkerPool.wake` (called by the HTTP frontend whenever a
submission leaves a job queued) cuts that sleep short for the workers of
the same process.  The timed poll remains the fallback for jobs queued by
another ``serve`` process on the same store, and it paces stale-claim
recovery.
"""

from __future__ import annotations

import logging
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.api import KernelHelpers, Session, sweep_json_text
from repro.obs import Tracer, activate
from repro.service.jobs import JobSpec, JobState, spec_from_canonical
from repro.service.store import JobRecord, JobStore

logger = logging.getLogger(__name__)

#: How long a claim may go without a heartbeat before peers requeue it.
DEFAULT_STALE_AFTER_S = 30.0

#: The per-job meters every worker records and ``GET /v1/metrics`` reports.
JOB_METERS = ("service.queue_wait_s", "service.compute_s")


class Worker:
    """One claim-execute-finish loop over a :class:`JobStore`.

    Parameters
    ----------
    store:
        The shared job queue.
    session:
        The worker's engine connection.  Workers sharing one cache
        directory should share one backend (or use the ``"shared"``
        backend kind) so cross-worker deduplication holds.
    worker_id:
        Stable identity recorded on claims and heartbeats.
    poll_interval_s / heartbeat_interval_s / stale_after_s:
        Idle poll cadence, heartbeat cadence of a running job, and the
        staleness bound after which peers may requeue a silent claim.
    """

    def __init__(self, store: JobStore, session: Session, worker_id: str, *,
                 poll_interval_s: float = 0.1,
                 heartbeat_interval_s: float = 2.0,
                 stale_after_s: float = DEFAULT_STALE_AFTER_S):
        self.store = store
        self.session = session
        self.worker_id = worker_id
        self.poll_interval_s = poll_interval_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.stale_after_s = stale_after_s
        self.tracer = Tracer(name=f"worker:{worker_id}")
        #: Set to end an idle wait early (a job was queued, or stop).
        self.wakeup = threading.Event()

    # -- the loop -----------------------------------------------------------------
    def run_forever(self, stop: threading.Event) -> None:
        """Drain the store until ``stop`` is set (graceful: the job in
        hand always completes; only *claiming* stops).  Whoever sets
        ``stop`` should also set :attr:`wakeup` so an idle wait ends now."""
        while not stop.is_set():
            record = self.store.claim(self.worker_id)
            if record is None:
                recovered = self.store.requeue_stale(self.stale_after_s)
                if recovered["requeued"] or recovered["failed"]:
                    self.tracer.count("service.jobs.stale_recovered",
                                      recovered["requeued"]
                                      + recovered["failed"])
                    continue
                self.wakeup.wait(self.poll_interval_s)
                # Cleared before the next claim, so a wake-up that lands
                # while that claim runs stays set and ends the next wait.
                # The event is this worker's own: a peer's clear cannot
                # swallow it.
                self.wakeup.clear()
                continue
            self.execute(record)

    def execute(self, record: JobRecord) -> None:
        """Execute one claimed job and record its outcome."""
        self.tracer.count("service.jobs.claimed")
        spec = spec_from_canonical(record.spec)
        started = time.perf_counter()
        try:
            with self._heartbeats(record.job_id), activate(self.tracer), \
                    self.tracer.span(f"job:{record.job_id[:12]}", kind="job",
                                     job_kind=spec.kind, target=spec.name):
                result_text, cache_key, computed = self._execute_spec(spec)
        except Exception as error:
            detail = "".join(traceback.format_exception_only(error)).strip()
            state = self.store.fail(record.job_id, self.worker_id, detail)
            self.tracer.count("service.jobs.failed"
                              if state == JobState.FAILED
                              else "service.jobs.retried")
            logger.warning("worker %s: job %s attempt %d/%d failed (%s): %s",
                           self.worker_id, record.job_id[:12],
                           record.attempts, record.max_attempts,
                           state or "lost claim", detail)
            return
        # Recorded before the job reads done, so a client that saw it
        # done finds it in ``/v1/metrics``.  A claim stamps the record's
        # heartbeat with the time its poll began, which may precede the
        # submission it then finds by a few milliseconds: such a job
        # waited for nothing.
        self.tracer.meter_record("service.compute_s",
                                 time.perf_counter() - started)
        self.tracer.meter_record("service.queue_wait_s",
                                 max(0.0, record.heartbeat_unix_s
                                     - record.submitted_unix_s))
        self.store.finish(record.job_id, self.worker_id,
                          result_text=result_text, cache_key=cache_key)
        self.tracer.count("service.jobs.done")
        self.tracer.count("service.jobs.computed" if computed
                          else "service.jobs.served_from_cache")
        logger.info("worker %s: job %s done (%s)", self.worker_id,
                    record.job_id[:12],
                    "computed" if computed else "cache")

    def _execute_spec(self, spec: JobSpec
                      ) -> Tuple[str, Optional[str], bool]:
        """Run the spec; returns (result text, engine cache key, computed)."""
        if spec.kind == "run":
            seed = spec.seed if spec.seed is not None else self.session.seed
            key = self.session.cache_key(spec.name, seed=seed, **spec.params)
            backend = getattr(self.session.cache, "backend", None)
            lock = (backend.lock(key) if backend is not None
                    and hasattr(backend, "lock") else nullcontext())
            # Under the shared backend's per-key lock the engine's own
            # cache lookup doubles as the double-check: a concurrent
            # worker that already computed the key turns this into a hit.
            with lock:
                result = self.session.run(spec.name, seed=seed,
                                          **spec.params)
            return result.to_json(), result.cache_key, not result.cache_hit
        sweep = self.session.sweep_spec(spec.name, quick=spec.quick)
        if spec.params:
            sweep = sweep.with_overrides(dict(spec.params))
        result = self.session.sweep(sweep)
        return sweep_json_text(result), None, result.computed_points > 0

    @contextmanager
    def _heartbeats(self, job_id: str) -> Iterator[None]:
        """Tick the claim's heartbeat while the body computes."""
        done = threading.Event()

        def tick() -> None:
            while not done.wait(self.heartbeat_interval_s):
                try:
                    self.store.heartbeat(job_id, self.worker_id)
                except Exception:  # pragma: no cover - liveness best effort
                    pass

        ticker = threading.Thread(target=tick, daemon=True,
                                  name=f"heartbeat:{self.worker_id}")
        ticker.start()
        try:
            yield
        finally:
            done.set()
            ticker.join(timeout=5.0)


class WorkerPool:
    """N workers as daemon threads over one store, sharing one
    :class:`repro.api.KernelHelpers`.

    Parameters
    ----------
    store:
        The shared job queue.
    session_factory:
        Zero-argument callable building one :class:`Session` per worker
        (give every session the same shared backend or cache directory).
    workers:
        Worker count; ``0`` is legal (a frontend-only process).
    worker_options:
        Passed through to every :class:`Worker`.
    """

    def __init__(self, store: JobStore,
                 session_factory: Callable[[], Session], *,
                 workers: int = 2, **worker_options: Any):
        self.store = store
        self.helpers = KernelHelpers()
        self.workers: List[Worker] = [
            Worker(store, session_factory(), f"worker-{index}",
                   **worker_options)
            for index in range(workers)]
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    def start(self) -> None:
        """Start every worker thread (idempotent per pool); no process
        starts before the first large kernel call."""
        if self._threads:
            raise RuntimeError("WorkerPool already started")
        self._stop.clear()
        for worker in self.workers:
            thread = threading.Thread(target=self._run, args=(worker,),
                                      daemon=True, name=worker.worker_id)
            thread.start()
            self._threads.append(thread)

    def _run(self, worker: Worker) -> None:
        """One worker thread: its loop, with the pool's helpers lent to
        every kernel call it makes."""
        with self.helpers.lend():
            worker.run_forever(self._stop)

    def wake(self) -> None:
        """End every idle worker's poll wait (a job was just queued)."""
        for worker in self.workers:
            worker.wakeup.set()

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful drain: stop claiming, finish jobs in hand, join, then
        end and reap the kernel helpers."""
        self._stop.set()
        self.wake()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        self.helpers.stop()

    def wait_idle(self, timeout: float = 60.0,
                  poll_interval_s: float = 0.05) -> bool:
        """Block until no job is queued or running (or ``timeout``)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            counts = self.store.counts()
            if counts[JobState.QUEUED] == 0 \
                    and counts[JobState.RUNNING] == 0:
                return True
            time.sleep(poll_interval_s)
        return False

    def metrics(self) -> Dict[str, Any]:
        """Merged observability counters and job timing of every worker
        tracer.

        ``counters`` sums the per-worker counts (service job outcomes plus
        the engine's ``cache.*`` events recorded while each worker's
        tracer was active); ``per_worker`` keeps the breakdown.  ``timing``
        gives the finished jobs' queue wait and compute seconds
        (:data:`JOB_METERS`): their count, median and 90th percentile
        (``None`` before the first job).
        """
        merged: Dict[str, int] = {}
        per_worker: Dict[str, Dict[str, int]] = {}
        timing = Tracer(name="timing")  # the workers' job meters, merged
        for worker in self.workers:
            counts = worker.tracer.counters.as_dict()
            per_worker[worker.worker_id] = counts
            for name, value in counts.items():
                merged[name] = merged.get(name, 0) + value
            for name in JOB_METERS:
                meter = worker.tracer.meters.get(name)
                for value in (meter.values if meter is not None else ()):
                    timing.meter_record(name, value)
        meters = {name: timing.meters.get(name) for name in JOB_METERS}
        return {"counters": {name: merged[name] for name in sorted(merged)},
                "per_worker": per_worker,
                "timing": {name: {"count": 0, "p50_s": None, "p90_s": None}
                           if meter is None else
                           {"count": meter.count,
                            "p50_s": meter.percentile(50),
                            "p90_s": meter.percentile(90)}
                           for name, meter in meters.items()}}
