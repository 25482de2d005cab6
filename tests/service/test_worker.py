"""Tests of the worker pool: execution, dedup, crash requeue, drain."""

import sys
import threading
import time

import pytest

from repro.api import Session, resolve_backend
from repro.service import JobSpec, JobState, JobStore, Worker, WorkerPool
from repro.service import canonicalize


def submit(store, session, spec):
    job = canonicalize(session, spec)
    store.submit(job.job_id, job.payload, cache_key=job.cache_key)
    return job


@pytest.fixture()
def backend(tmp_path):
    return resolve_backend("shared", tmp_path / "cache")


@pytest.fixture()
def store(tmp_path):
    return JobStore(tmp_path / "jobs.sqlite")


class TestExecute:
    def test_run_job_result_is_byte_identical_to_a_direct_run(
            self, backend, store):
        session = Session(backend=backend)
        job = submit(store, session,
                     JobSpec(kind="run", name="fig3_radio", seed=9))
        worker = Worker(store, session, "w0")
        worker.execute(store.claim("w0"))
        record = store.get(job.job_id)
        assert record.state == JobState.DONE
        assert record.cache_key == job.cache_key
        direct = Session(backend=backend).run("fig3_radio", seed=9)
        assert store.result_text(job.job_id) == direct.to_json()

    def test_counters_distinguish_computed_from_cache(self, backend, store):
        session = Session(backend=backend)
        spec = JobSpec(kind="run", name="fig3_radio", seed=9)
        job = submit(store, session, spec)
        worker = Worker(store, session, "w0")
        worker.execute(store.claim("w0"))
        # Same computation, new job id (different spelling is deduped, so
        # force a distinct identity with a fresh store entry).
        store2 = JobStore(store.path.parent / "second.sqlite")
        job2 = submit(store2, session, spec)
        assert job2.job_id == job.job_id
        worker2 = Worker(store2, session, "w1")
        worker2.execute(store2.claim("w1"))
        assert worker.tracer.counters.as_dict()[
            "service.jobs.computed"] == 1
        assert worker2.tracer.counters.as_dict()[
            "service.jobs.served_from_cache"] == 1

    def test_failing_job_retries_then_fails(self, store, tmp_path):
        session = _CrashingSession(fail_times=99)
        job = submit_run_stub(store, "always-broken")
        worker = Worker(store, session, "w0")
        for _ in range(3):
            record = store.claim("w0")
            worker.execute(record)
        final = store.get(job)
        assert final.state == JobState.FAILED
        assert "synthetic crash" in final.error
        assert worker.tracer.counters.as_dict()["service.jobs.retried"] == 2
        assert worker.tracer.counters.as_dict()["service.jobs.failed"] == 1

    def test_transient_crash_recovers_on_retry(self, store):
        session = _CrashingSession(fail_times=1)
        job = submit_run_stub(store, "flaky")
        worker = Worker(store, session, "w0")
        worker.execute(store.claim("w0"))
        assert store.get(job).state == JobState.QUEUED  # requeued
        worker.execute(store.claim("w0"))
        final = store.get(job)
        assert final.state == JobState.DONE
        assert store.result_text(job) == '{"stub": true}'


class TestPool:
    def test_two_workers_drain_disjointly_with_no_recompute(
            self, backend, store):
        """The acceptance race: 2 workers, one shared backend, several jobs
        deduping onto common cache keys — every job done, each claimed
        once, each distinct computation computed once."""
        session = Session(backend=backend)
        jobs = []
        for seed in (11, 12, 13, 14):
            jobs.append(submit(store, session,
                               JobSpec(kind="run", name="fig3_radio",
                                       seed=seed)))
        pool = WorkerPool(store, lambda: Session(backend=backend),
                          workers=2, poll_interval_s=0.02)
        pool.start()
        try:
            assert pool.wait_idle(timeout=120)
        finally:
            pool.stop()
        counters = pool.metrics()["counters"]
        assert counters["service.jobs.done"] == len(jobs)
        assert counters["service.jobs.claimed"] == len(jobs)
        assert counters["service.jobs.computed"] == len(jobs)
        assert counters.get("service.jobs.served_from_cache", 0) == 0
        for job in jobs:
            record = store.get(job.job_id)
            assert record.state == JobState.DONE
            assert record.attempts == 1  # claimed exactly once

    def test_graceful_drain_finishes_the_job_in_hand(self, store):
        session = _SlowSession(delay_s=0.4)
        job = submit_run_stub(store, "slow")
        pool = WorkerPool(store, lambda: session, workers=1,
                          poll_interval_s=0.02)
        pool.start()
        deadline = time.monotonic() + 10
        while store.get(job).state != JobState.RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        pool.stop()  # drain while mid-job
        assert store.get(job).state == JobState.DONE

    def test_crashed_worker_claim_is_requeued_and_finished(self, tmp_path):
        now = [1000.0]
        store = JobStore(tmp_path / "jobs.sqlite", clock=lambda: now[0])
        job = submit_run_stub(store, "orphaned")
        store.claim("ghost-worker")  # a worker that died silently
        now[0] += 120
        pool = WorkerPool(store, lambda: _SlowSession(delay_s=0.0),
                          workers=1, poll_interval_s=0.02,
                          stale_after_s=30)
        pool.start()
        try:
            assert pool.wait_idle(timeout=30)
        finally:
            pool.stop()
        record = store.get(job)
        assert record.state == JobState.DONE
        assert record.attempts == 2  # ghost's claim plus the real one
        counters = pool.metrics()["counters"]
        assert counters["service.jobs.stale_recovered"] == 1

    def test_heartbeats_flow_while_a_job_computes(self, store):
        session = _SlowSession(delay_s=0.5)
        job = submit_run_stub(store, "beating")
        worker = Worker(store, session, "w0", heartbeat_interval_s=0.05)
        claimed = store.claim("w0")
        first_beat = claimed.heartbeat_unix_s
        worker.execute(claimed)
        assert store.get(job).heartbeat_unix_s > first_beat


class TestWakeUp:
    def test_every_submit_is_claimed_promptly_under_contention(self, store):
        """Submits wake idle workers of the same process, so a job waits
        for a claim, not for the 5 s poll.  More workers than cores and a
        tiny switch interval interleave submits, claims and waits as
        finely as the interpreter allows; one lost wake-up costs 5 s."""
        from repro.service import ServiceState

        session = _RecordingSession()
        pool = WorkerPool(store, lambda: session, workers=4,
                          poll_interval_s=5.0)
        state = ServiceState(Session(cache=False), store, pool)
        submitted = {}
        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool.start()
            threads = [thread for thread in threading.enumerate()
                       if thread.name.startswith("worker-")]
            assert len(threads) == 4
            for seed in range(1, 41):
                submitted[seed] = time.monotonic()
                status, receipt = state.submit(
                    {"kind": "run", "name": "fig3_radio", "seed": seed})
                assert status == 201 and receipt["state"] == JobState.QUEUED
                time.sleep(0.002 * (seed % 4))
            assert pool.wait_idle(timeout=30, poll_interval_s=0.01)
            stop_started = time.monotonic()
            pool.stop(timeout=10)
            stop_s = time.monotonic() - stop_started
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(previous_interval)
            pool.stop(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert stop_s < 1.0  # stop wakes the idle workers too
        assert sorted(session.claimed) == sorted(submitted)
        assert all(len(times) == 1 for times in session.claimed.values())
        waits = {seed: session.claimed[seed][0] - submitted[seed]
                 for seed in submitted}
        assert max(waits.values()) < 1.0, waits
        for record in store.jobs():
            assert record.state == JobState.DONE
            assert record.attempts == 1


# -- stub sessions (duck-typed against the Session surface the worker uses) ----

def submit_run_stub(store, name):
    """Enqueue a canonical-shaped run payload without touching the engine."""
    payload = {"kind": "run", "experiment": name, "params": {}, "seed": 1,
               "code_version": "stub"}
    store.submit(name, payload)
    return name


class _StubResult:
    cache_key = "s" * 64
    cache_hit = False

    def to_json(self):
        return '{"stub": true}'


class _StubSessionBase:
    seed = 1
    cache = object()  # no .backend attribute -> worker skips locking

    def cache_key(self, name, *, seed=None, **params):
        return "s" * 64


class _CrashingSession(_StubSessionBase):
    def __init__(self, fail_times):
        self.remaining = fail_times

    def run(self, name, *, seed=None, **params):
        if self.remaining > 0:
            self.remaining -= 1
            raise RuntimeError("synthetic crash")
        return _StubResult()


class _SlowSession(_StubSessionBase):
    def __init__(self, delay_s):
        self.delay_s = delay_s

    def run(self, name, *, seed=None, **params):
        time.sleep(self.delay_s)
        return _StubResult()


class _RecordingSession(_StubSessionBase):
    """Records when each seed's run starts (one session for all workers)."""

    def __init__(self):
        self.claimed = {}
        self.lock = threading.Lock()

    def run(self, name, *, seed=None, **params):
        with self.lock:
            self.claimed.setdefault(seed, []).append(time.monotonic())
        return _StubResult()
