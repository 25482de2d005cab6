"""Lane pieces over forked workers: same rows, no process left behind.

A large :meth:`BatchedChannelSimulator.run` cuts its lanes into
contiguous pieces and shares them between the caller and ``os.fork``
children of the worker pool (:func:`repro.mac.vectorized._shard_count`
picks how many workers through :func:`repro.pool.worker_count`,
:func:`~repro.mac.vectorized._piece_count` how many pieces); each worker
takes the next piece when it is free.  A lane's summary does
not depend on its batch, so a sharded call must return exactly the
single-process call's summaries, whichever worker ran which piece; its
trace must equal the serial trace outside the timing field; and every
child must be reaped whether the call succeeds, a worker fails or the
caller is interrupted.

A call from a thread cannot fork; when the thread has
:class:`repro.pool.KernelHelpers` lent, it shares its pieces with the
idle helper processes instead, and the same contract holds: the
summaries and the deterministic trace of a one-process call, no process
left once the helpers are stopped, and a helper's failure named.

The tests force small calls to shard by lowering the per-worker and
per-piece floors and patching the CPU set the policy reads.
"""

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from functools import partial

import pytest

import repro.mac.vectorized as vectorized
import repro.pool as pool
from repro.mac.superframe import SuperframeConfig
from repro.mac.vectorized import (BatchedChannelSimulator, ChannelLane,
                                  _piece_count, _shard_bounds, _shard_count)
from repro.network.node import SensorNode
from repro.obs import Tracer, deterministic_view, validate_trace
from repro.obs.trace import build_payload
from repro.runner.engine import run_experiment

SRC = os.path.dirname(os.path.dirname(os.path.abspath(pool.__file__)))

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                                reason="lane shards run on Linux only")

#: ``case_study_full`` workloads at test scale, one per regime the kernel
#: distinguishes (4 to 8 lanes each, so three shards always fit).
WORKLOADS = {
    "saturated": {"total_nodes": 96, "num_channels": 4, "superframes": 4,
                  "replications": 2},
    "poisson": {"total_nodes": 96, "num_channels": 4, "superframes": 4,
                "replications": 2, "traffic_model": "poisson"},
    "bursty-so-below-bo": {"total_nodes": 64, "num_channels": 4,
                           "superframes": 4, "beacon_order": 4,
                           "superframe_order": 2,
                           "traffic_model": "bursty"},
    "routed-grid": {"total_nodes": 64, "num_channels": 2, "superframes": 4,
                    "replications": 2, "topology": "grid", "max_hops": 3,
                    "traffic_model": "periodic"},
}


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes every later call shard over ``k`` CPUs, however
    small, in up to ``2 k`` pieces of one lane or more; ``cpus(1)`` keeps
    it in one process."""
    def use(count):
        monkeypatch.setattr(vectorized, "_SHARD_FLOOR", 1)
        monkeypatch.setattr(vectorized, "_PIECE_FLOOR", 1)
        monkeypatch.setattr(pool, "usable_cpus", lambda: list(range(count)))
    return use


@pytest.fixture
def forks(monkeypatch):
    """The pids of every ``os.fork`` the test makes (in the caller)."""
    made = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return made


@pytest.fixture
def no_fork(monkeypatch):
    def refuse():
        raise AssertionError("os.fork must not be called here")
    monkeypatch.setattr(os, "fork", refuse)


def wait_for(path, timeout=30.0):
    """Block until ``path`` exists (a forked child touches it)."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} never appeared"
        time.sleep(0.01)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def lane(seed, size):
    nodes = [SensorNode(node_id=i, channel=11, path_loss_db=70.0 + i)
             for i in range(1, size + 1)]
    return ChannelLane(nodes=nodes, tx_levels_dbm=[0.0] * size, seed=seed)


def uneven_batch():
    """Lanes of 2 to 9 devices: shards cut at lane bounds, not evenly."""
    lanes = [lane(seed, size) for seed, size
             in enumerate((2, 9, 1, 5, 3, 7), start=40)]
    return BatchedChannelSimulator(
        lanes, SuperframeConfig(beacon_order=2, superframe_order=2),
        payload_bytes=100)


def rows_json(params, tracer=None):
    result = run_experiment("case_study_full", params=params, cache=False,
                            seed=7, tracer=tracer)
    return json.dumps(result.payload, sort_keys=True)


class TestShardedRowsEqualOneCall:
    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_case_study_rows_are_byte_identical(self, workload, shards,
                                                cpus, forks):
        params = WORKLOADS[workload]
        cpus(1)
        serial = rows_json(params)
        assert not forks
        cpus(shards)
        assert rows_json(params) == serial
        assert len(forks) == shards - 1
        assert_no_child_left()

    @pytest.mark.parametrize("shards", [2, 3])
    def test_uneven_lanes_give_the_single_call_summaries(self, shards, cpus,
                                                         forks):
        cpus(1)
        serial = uneven_batch().run(superframes=6)
        cpus(shards)
        assert uneven_batch().run(superframes=6) == serial
        assert len(forks) == shards - 1
        assert_no_child_left()

    def test_a_busy_worker_leaves_its_share_to_the_others(self, cpus,
                                                          monkeypatch):
        """The child spends half a second on each piece it takes, so the
        caller takes the queued pieces: it runs more than the three lanes
        an even split would give it, and the rows do not change."""
        cpus(1)
        serial = uneven_batch().run(superframes=6)
        cpus(2)
        parent = os.getpid()
        ran = []
        real = BatchedChannelSimulator._run_batched

        def run_batched(self, superframes):
            if os.getpid() == parent:
                ran.append(len(self.lanes))
            else:
                time.sleep(0.5)
            return real(self, superframes)

        monkeypatch.setattr(BatchedChannelSimulator, "_run_batched",
                            run_batched)
        assert uneven_batch().run(superframes=6) == serial
        assert sum(ran) >= 4
        assert_no_child_left()


class TestWorkersKeepTheirOwnCpu:
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs")
    def test_each_worker_runs_on_a_cpu_of_its_own(self, monkeypatch,
                                                  tmp_path):
        """The caller runs on the first usable CPU and the child on the
        second; the caller waits for the child's piece before its own."""
        monkeypatch.setattr(vectorized, "_SHARD_FLOOR", 1)
        monkeypatch.setattr(vectorized, "_PIECE_FLOOR", 1)
        first, second = sorted(os.sched_getaffinity(0))[:2]
        monkeypatch.setattr(pool, "usable_cpus", lambda: [first, second])
        parent = os.getpid()
        seen = tmp_path / "child-cpus"
        caller_cpus = []
        real = BatchedChannelSimulator._run_batched

        def run_batched(self, superframes):
            if os.getpid() == parent:
                wait_for(seen)
                caller_cpus.append(os.sched_getaffinity(0))
            elif not seen.exists():
                seen.write_text(json.dumps(sorted(os.sched_getaffinity(0))))
            return real(self, superframes)

        monkeypatch.setattr(BatchedChannelSimulator, "_run_batched",
                            run_batched)
        before = os.sched_getaffinity(0)
        uneven_batch().run(superframes=6)
        assert json.loads(seen.read_text()) == [second]
        assert set(map(frozenset, caller_cpus)) == {frozenset({first})}
        assert os.sched_getaffinity(0) == before
        assert_no_child_left()

    def test_a_failing_call_gives_the_caller_its_cpu_set_back(
            self, cpus, monkeypatch):
        cpus(2)
        before = os.sched_getaffinity(0)

        def stop():
            raise ValueError("caller stopped")

        TestShardFailures.patch_shards(monkeypatch, caller=stop)
        with pytest.raises(ValueError, match="caller stopped"):
            uneven_batch().run(superframes=6)
        assert os.sched_getaffinity(0) == before
        assert_no_child_left()


class TestShardBounds:
    @pytest.mark.parametrize("counts, shards, expected", [
        ([100] * 16, 2, [0, 8, 16]),
        ([100] * 16, 3, [0, 5, 11, 16]),
        ([2, 9, 1, 5, 3, 7], 2, [0, 3, 6]),
        ([2, 9, 1, 5, 3, 7], 3, [0, 2, 4, 6]),
        ([50, 1, 1, 1], 3, [0, 1, 2, 4]),
        ([1, 1, 1, 50], 4, [0, 1, 2, 3, 4]),
    ])
    def test_contiguous_non_empty_shards_of_about_equal_devices(
            self, counts, shards, expected):
        assert _shard_bounds(counts, shards) == expected


class TestPieceCount:
    def test_the_paper_network_gives_two_pieces_per_worker(self):
        assert _piece_count(16, 1600, 50, 2) == 4
        assert _piece_count(128, 12800, 50, 2) == 4

    def test_pieces_stay_within_lanes_and_the_floor(self):
        assert _piece_count(3, 12800, 50, 2) == 3
        assert _piece_count(64, 6000, 10, 4) == 6
        assert _piece_count(4000, 60000, 50, 200) == 300
        assert _piece_count(16, 1600, 20, 3) == 3

    def test_every_worker_has_a_piece_of_its_own(self):
        assert _piece_count(16, 1600, 5, 2) == 2
        assert _piece_count(3, 30, 1, 3) == 3


class TestShardPolicy:
    def test_the_paper_network_shards_on_two_cpus(self, monkeypatch):
        """1600 nodes x 50 superframes over 16 lanes (the headline run of
        ``TestBatchedHeadlineGolden``) clears the per-shard floor."""
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1])
        assert _shard_count(16, 1600, 50) == 2

    def test_shards_never_exceed_lanes_or_cpus(self, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1, 2])
        assert _shard_count(2, 12800, 50) == 2
        assert _shard_count(128, 12800, 50) == 3
        monkeypatch.setattr(pool, "usable_cpus", lambda: [5])
        assert _shard_count(128, 12800, 50) == 1

    def test_a_call_below_the_floor_does_not_fork(self, monkeypatch,
                                                  no_fork):
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1])
        assert len(uneven_batch().run(superframes=6)) == 6

    def test_off_linux_does_not_fork(self, cpus, monkeypatch, no_fork):
        cpus(2)
        monkeypatch.setattr(pool.sys, "platform", "darwin")
        assert len(uneven_batch().run(superframes=6)) == 6

    def test_a_call_from_a_second_thread_does_not_fork(self, cpus, no_fork):
        cpus(2)
        outcome = {}

        def work():
            try:
                outcome["summaries"] = uneven_batch().run(superframes=6)
            except BaseException as error:  # re-raised on the test thread
                outcome["error"] = error

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        if "error" in outcome:
            raise outcome["error"]
        assert len(outcome["summaries"]) == 6

    def test_a_call_in_a_multiprocessing_child_does_not_fork(self, cpus):
        cpus(2)
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_run_without_fork, args=(sender,))
        child.start()
        sender.close()
        try:
            assert receiver.poll(60)
            assert receiver.recv() == "ok"
        finally:
            child.join(timeout=60)
        assert child.exitcode == 0


def _run_without_fork(sender):
    """``multiprocessing`` child: a shard-sized call must stay in-process."""
    def refuse():
        raise AssertionError("os.fork called in a multiprocessing child")

    os.fork = refuse
    try:
        uneven_batch().run(superframes=6)
        sender.send("ok")
    except BaseException as error:
        sender.send(repr(error))


class TestShardFailures:
    @staticmethod
    def patch_shards(monkeypatch, caller=None, children=None):
        """Run ``caller()`` before each of the caller's own pieces and
        ``children()`` before each piece of a forked child."""
        parent = os.getpid()
        real = BatchedChannelSimulator._run_batched

        def run_batched(self, superframes):
            action = caller if os.getpid() == parent else children
            if action is not None:
                action()
            return real(self, superframes)

        monkeypatch.setattr(BatchedChannelSimulator, "_run_batched",
                            run_batched)

    def test_a_raising_worker_is_named_and_every_child_reaped(
            self, cpus, monkeypatch, tmp_path):
        """Six one-lane pieces over three workers.  The children fail on
        the first piece they take, and the caller runs its own only once
        a child has taken one."""
        cpus(3)
        taken = tmp_path / "taken"

        def boom():
            taken.touch()
            raise ValueError("lane state corrupted")

        self.patch_shards(monkeypatch, caller=lambda: wait_for(taken),
                          children=boom)
        with pytest.raises(RuntimeError) as error:
            uneven_batch().run(superframes=6)
        message = str(error.value)
        assert re.match(r"kernel worker [12] of 3 failed on lanes "
                        r"(\d)-\1: ", message)
        assert "ValueError: lane state corrupted" in message
        assert_no_child_left()

    def test_a_child_dying_without_a_reply_is_reported(self, cpus,
                                                       monkeypatch, tmp_path):
        cpus(2)
        taken = tmp_path / "taken"

        def die():
            taken.touch()
            os._exit(3)

        self.patch_shards(monkeypatch, caller=lambda: wait_for(taken),
                          children=die)
        with pytest.raises(RuntimeError,
                           match=r"kernel worker 1 of 2 failed: "
                                 r"it exited with status 3 without replying"):
            uneven_batch().run(superframes=6)
        assert_no_child_left()

    def test_a_failed_fork_raises_and_leaks_nothing(self, cpus, monkeypatch):
        """At the process limit the second fork fails: the call raises,
        the child already forked is reaped and no pipe end stays open."""
        cpus(3)
        real_fork = os.fork
        attempts = []

        def fork_once():
            attempts.append(1)
            if len(attempts) > 1:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork_once)
        open_before = set(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            uneven_batch().run(superframes=6)
        assert len(attempts) == 2
        assert set(os.listdir("/proc/self/fd")) <= open_before
        assert_no_child_left()

    @pytest.mark.parametrize("failure", [KeyboardInterrupt, ValueError])
    def test_a_failing_caller_kills_and_reaps_the_children(
            self, cpus, monkeypatch, failure):
        """The children would sleep for a minute; once the caller's own
        shard fails or is interrupted, the call must not wait for them."""
        cpus(3)

        def stop():
            raise failure("caller stopped")

        self.patch_shards(monkeypatch, caller=stop,
                          children=lambda: time.sleep(60))
        started = time.monotonic()
        with pytest.raises(failure, match="caller stopped"):
            uneven_batch().run(superframes=6)
        assert time.monotonic() - started < 30
        assert_no_child_left()


class TestShardedTrace:
    PARAMS = WORKLOADS["poisson"]

    def trace(self):
        tracer = Tracer(name="run:case_study_full")
        rows = rows_json(self.PARAMS, tracer=tracer)
        return rows, build_payload(tracer)

    def test_deterministic_view_equals_the_serial_trace(self, cpus, forks):
        cpus(1)
        serial_rows, serial = self.trace()
        cpus(3)
        sharded_rows, sharded = self.trace()
        assert len(forks) == 2
        assert sharded_rows == serial_rows
        validate_trace(serial)
        validate_trace(sharded)
        assert deterministic_view(sharded) == deterministic_view(serial)
        kernel = [span for span in sharded["spans"]
                  if span["name"] == "kernel:batched"]
        assert len(kernel) == 1
        assert kernel[0]["counters"]["lanes"] == 8

    def test_shard_count_and_times_stay_on_the_timing_side(self, cpus):
        cpus(3)
        _, sharded = self.trace()
        meter = sharded["timing"]["meters"]["kernel.shard_s"]
        assert meter["count"] == 3
        assert meter["max_s"] > 0.0
        durations = sharded["timing"]["durations_s"]
        ids = {span["name"]: str(span["id"]) for span in sharded["spans"]}
        phases = sum(durations[ids[name]] for name in (
            "setup", "beacon_grid", "contention_merge", "energy_ledger"))
        assert phases == pytest.approx(durations[ids["kernel:batched"]],
                                       rel=1e-9)


# -- helpers lent to a thread -------------------------------------------------

def in_thread(kernel_helpers, call):
    """``call()``'s value, computed on a new thread that has
    ``kernel_helpers`` lent, as a worker thread of ``repro serve`` has."""
    outcome = {}

    def work():
        try:
            with kernel_helpers.lend():
                outcome["value"] = call()
        except BaseException as error:  # re-raised on the test thread
            outcome["error"] = error

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def helper_eval(kernel_helpers, expression):
    """``eval(expression)`` in one of the idle helpers."""
    def call():
        taken, cpu = pool.lent_helpers(1, vectorized._warm_up)
        assert len(taken) == 1
        return pool.run_helpers(lambda items: None,
                                lambda index: partial(eval, expression), 1,
                                taken, cpu)[1][0]
    return in_thread(kernel_helpers, call)


@pytest.fixture
def helpers(cpus):
    """``helpers(k)``: a :class:`KernelHelpers` with its ``k - 1`` helpers
    started and idle, every later call sharded however small; stopped at
    teardown, after which no child may be left."""
    made = []

    def start(count):
        cpus(count)
        kernel_helpers = pool.KernelHelpers()
        made.append(kernel_helpers)
        # The first call spawns the helpers and runs without them.
        in_thread(kernel_helpers, lambda: uneven_batch().run(superframes=6))
        assert kernel_helpers.wait_ready() == count - 1
        return kernel_helpers

    yield start
    for kernel_helpers in made:
        kernel_helpers.stop()
    assert_no_child_left()


class TestHelpersLentToAThread:
    @pytest.mark.parametrize("hash_seed", [None, "12345"])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_rows_and_trace_equal_the_main_thread_serial_call(
            self, workload, hash_seed, cpus, helpers, monkeypatch, no_fork):
        params = WORKLOADS[workload]
        cpus(1)
        serial_tracer = Tracer(name="run:case_study_full")
        serial = rows_json(params, tracer=serial_tracer)
        if hash_seed is not None:
            monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        kernel_helpers = helpers(2)
        if hash_seed is not None:
            assert helper_eval(kernel_helpers, "hash('repro')") \
                != hash("repro")
        tracer = Tracer(name="run:case_study_full")
        assert in_thread(kernel_helpers,
                         lambda: rows_json(params, tracer=tracer)) == serial
        payload = build_payload(tracer)
        validate_trace(payload)
        assert deterministic_view(payload) == deterministic_view(
            build_payload(serial_tracer))
        # The caller and the helper each ran pieces of the call.
        shares = tracer.meters["kernel.shard_s"].values
        assert len(shares) == 2 and min(shares) > 0.0

    def test_two_helpers_give_the_single_call_summaries(self, cpus, helpers,
                                                        no_fork):
        cpus(1)
        serial = uneven_batch().run(superframes=6)
        kernel_helpers = helpers(3)
        assert in_thread(kernel_helpers,
                         lambda: uneven_batch().run(superframes=6)) == serial

    def test_threads_contending_for_the_helpers_get_the_serial_summaries(
            self, cpus, helpers, no_fork):
        """More calling threads than CPUs share two helpers under a short
        switch interval: a helper taken by two calls at once would mix
        their replies, and one never given back would leave the set short."""
        cpus(1)
        serial = uneven_batch().run(superframes=6)
        kernel_helpers = helpers(3)
        results, widths = [], []

        def calls():
            with kernel_helpers.lend(), pool.usage() as used:
                for _ in range(4):
                    results.append(uneven_batch().run(superframes=6))
            widths.extend(used)

        threads = [threading.Thread(target=calls) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 24 and all(rows == serial for rows in results)
        # The first call found both helpers idle; every call that took
        # any gave them back.
        assert widths and min(widths) > 1
        assert kernel_helpers.wait_ready() == 2

    def test_a_helper_imports_the_callers_copy_of_the_package(
            self, helpers, monkeypatch):
        """A host may put ``src`` on ``sys.path`` and set no
        ``PYTHONPATH``; the helper must still run this copy."""
        monkeypatch.delenv("PYTHONPATH", raising=False)
        kernel_helpers = helpers(2)
        assert helper_eval(kernel_helpers, "__import__('repro').__file__") \
            == sys.modules["repro"].__file__

    def test_the_first_call_spawns_and_later_calls_reuse(self, cpus,
                                                         monkeypatch):
        cpus(2)
        spawned = []
        real = subprocess.Popen

        def counting(*args, **kwargs):
            spawned.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", counting)
        kernel_helpers = pool.KernelHelpers()
        try:
            assert not spawned
            for _ in range(3):
                in_thread(kernel_helpers,
                          lambda: uneven_batch().run(superframes=6))
                kernel_helpers.wait_ready()
            assert len(spawned) == 1
        finally:
            kernel_helpers.stop()
        assert_no_child_left()

    def test_calls_spawn_only_the_helpers_they_lack(self, cpus, monkeypatch):
        """Four CPUs allow three helpers, but a call that can use one
        spawns one; a later call that can use five spawns the other two."""
        cpus(4)
        spawned = []
        real = subprocess.Popen

        def counting(*args, **kwargs):
            spawned.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", counting)
        kernel_helpers = pool.KernelHelpers()
        try:
            # 27 devices x 6 superframes over an 81 floor: two workers.
            monkeypatch.setattr(vectorized, "_SHARD_FLOOR", 81)
            in_thread(kernel_helpers,
                      lambda: uneven_batch().run(superframes=6))
            assert len(spawned) == 1 and kernel_helpers.wait_ready() == 1
            monkeypatch.setattr(vectorized, "_SHARD_FLOOR", 1)
            in_thread(kernel_helpers,
                      lambda: uneven_batch().run(superframes=6))
            assert len(spawned) == 3
            assert sorted(helper.cpu for helper in kernel_helpers._helpers) \
                == [1, 2, 3]
        finally:
            kernel_helpers.stop()
        assert_no_child_left()

    def test_each_call_keeps_to_a_cpu_no_other_call_or_busy_helper_holds(
            self, helpers):
        """Three calls at once over four CPUs and three helpers, each
        asking for one: the first two get a helper and a CPU apiece, the
        third finds every CPU held and takes none.  Each caller runs on
        the CPU it was given, and its own set is back afterwards."""
        kernel_helpers = helpers(4)
        leases, affinities = [], []
        turn = [threading.Event() for _ in range(4)]
        release = threading.Event()
        turn[0].set()

        def call(order):
            turn[order].wait()
            taken, cpu = pool.lent_helpers(1, vectorized._warm_up)
            leases.append(([helper.cpu for helper in taken], cpu))
            turn[order + 1].set()
            release.wait()
            if taken:
                pool.run_helpers(
                    lambda items: affinities.append(
                        (cpu, os.sched_getaffinity(0))),
                    lambda index: None, 0, taken, cpu)
            return os.sched_getaffinity(0)

        outcomes = []
        threads = [threading.Thread(
            target=lambda order=order: outcomes.append(
                in_thread(kernel_helpers, partial(call, order))))
            for order in range(3)]
        for thread in threads:
            thread.start()
        assert turn[3].wait(timeout=60)
        release.set()
        for thread in threads:
            thread.join(timeout=60)
        assert leases == [([3], 0), ([2], 1), ([], None)]
        # Pinning to a CPU this host lacks leaves the caller where it is.
        real = os.sched_getaffinity(0)
        assert sorted(affinities) == [
            (cpu, {cpu} if cpu in real else real) for cpu in (0, 1)]
        assert outcomes == [real] * 3
        assert kernel_helpers.wait_ready() == 3
        assert not kernel_helpers._callers

    def test_a_helper_that_fails_its_warm_up_ends_spawning(self, cpus,
                                                           monkeypatch):
        cpus(2)
        spawned = []
        real = subprocess.Popen

        def counting(*args, **kwargs):
            spawned.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", counting)
        kernel_helpers = pool.KernelHelpers()
        try:
            for _ in range(2):
                assert in_thread(kernel_helpers, lambda: pool.lent_helpers(
                    1, partial(int, "not a number"))) == ([], None)
                assert kernel_helpers.wait_ready() == 0
            assert len(spawned) == 1 and kernel_helpers._helpers == []
        finally:
            kernel_helpers.stop()
        assert_no_child_left()

    def test_a_call_below_the_floor_spawns_nothing(self, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1])

        def refuse(*args, **kwargs):
            raise AssertionError("a helper was spawned")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        kernel_helpers = pool.KernelHelpers()
        assert len(in_thread(kernel_helpers,
                             lambda: uneven_batch().run(superframes=6))) == 6
        kernel_helpers.stop()

    def test_a_helper_raising_is_named_and_stays_in_use(self, helpers):
        kernel_helpers = helpers(2)
        with pytest.raises(pool.WorkerFailed) as failure:
            helper_eval(kernel_helpers, "1 / 0")
        assert re.match(r"worker 1 of 2 failed on task 0: helper \d+ on "
                        r"CPU 1 raised: Traceback", str(failure.value))
        assert "ZeroDivisionError" in str(failure.value)
        assert helper_eval(kernel_helpers, "6 * 7") == 42

    def test_a_helper_killed_mid_piece_fails_the_call_and_is_dropped(
            self, cpus, helpers):
        """The helper is frozen, so the piece it takes waits in its pipe;
        killed then, it fails the call with its name, and the next call
        runs without it."""
        cpus(1)
        serial = uneven_batch().run(superframes=6)
        kernel_helpers = helpers(2)
        (helper,) = kernel_helpers._helpers
        pid = helper.process.pid
        os.kill(pid, signal.SIGSTOP)
        timer = threading.Timer(1.0, os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            with pytest.raises(RuntimeError) as failure:
                in_thread(kernel_helpers,
                          lambda: uneven_batch().run(superframes=6))
        finally:
            timer.join()
        assert re.match(rf"kernel worker 1 of 2 failed on lanes \d-\d: "
                        rf"helper {pid} on CPU 1 was killed by signal 9 "
                        rf"without replying", str(failure.value))
        assert kernel_helpers._helpers == []
        assert in_thread(kernel_helpers,
                         lambda: uneven_batch().run(superframes=6)) == serial

    def test_a_helper_exits_when_its_owner_is_killed(self, tmp_path):
        """A helper reads its requests from its owner; at the end of file
        that the owner's death leaves, it exits."""
        pids = tmp_path / "pids"
        owner = subprocess.Popen([sys.executable, "-c", f"""
import threading, time
import repro.mac.vectorized as vectorized
import repro.pool as pool
from repro.mac.superframe import SuperframeConfig
from repro.mac.vectorized import BatchedChannelSimulator, ChannelLane
from repro.network.node import SensorNode
vectorized._SHARD_FLOOR = vectorized._PIECE_FLOOR = 1
pool.usable_cpus = lambda: [0, 1]
helpers = pool.KernelHelpers()
def call():
    with helpers.lend():
        lanes = [ChannelLane(nodes=[SensorNode(node_id=1, channel=11,
                                               path_loss_db=70.0)],
                             tx_levels_dbm=[0.0], seed=seed)
                 for seed in range(4)]
        BatchedChannelSimulator(lanes, SuperframeConfig(2, 2)).run(4)
thread = threading.Thread(target=call)
thread.start()
thread.join()
helpers.wait_ready()
open({str(pids)!r}, "w").write(" ".join(
    str(helper.process.pid) for helper in helpers._helpers))
time.sleep(600)
"""], env={**os.environ, "PYTHONPATH": SRC})
        try:
            wait_for(pids, timeout=60)
            time.sleep(0.1)
            (pid,) = map(int, pids.read_text().split())
        finally:
            owner.kill()
            owner.wait()
        deadline = time.monotonic() + 30
        while _alive(pid):
            assert time.monotonic() < deadline, "the helper outlived its owner"
            time.sleep(0.05)


def _alive(pid):
    """Whether ``pid`` runs (a zombie no longer does)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
