"""Task fan-outs on the forked worker pool: same rows, no process left.

By default every task fan-out of a run, sweep or optimizer shares its
tasks between the caller and ``os.fork`` children of :mod:`repro.pool`,
one per usable CPU.  Every task carries its own seed, so the rows must be
byte-identical to ``jobs=1`` whichever worker ran which task; each worker
must run on a CPU of its own and the caller's CPU set must come back; a
point a worker computes must not fan out again (its kernel call stays in
one process); every child must be reaped whether the call succeeds, a
task raises or the caller is interrupted; and a threaded caller,
``jobs=1`` and a ``multiprocessing`` child never fork.

The tests patch the CPU list the policy reads (:func:`repro.pool.
usable_cpus`) where they need a given worker count.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

import repro.mac.vectorized as vectorized
import repro.pool as pool
from repro.runner.cache import ResultCache
from repro.runner.engine import run_experiment
from repro.runner.executor import _FORK_FLOOR_S, ProcessExecutor, run_ordered
from repro.sweep.catalog import get_optimize, get_sweep
from repro.sweep.driver import run_sweep
from repro.sweep.optimize import run_optimize
from repro.sweep.spec import GridAxis, SweepSpec

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                                reason="the worker pool forks on Linux only")

#: Whether this host lets a default fan-out fork at all.
MANY_CPUS = len(os.sched_getaffinity(0)) >= 2

#: Small runs of every experiment with a task fan-out.
FANNED_RUNS = {
    "fig6_csma": {"loads": [0.2, 0.6], "payload_sizes": [20, 100],
                  "num_windows": 2, "num_nodes": 20},
    "contention_table": {"num_windows": 1, "num_nodes": 10},
    "case_study_full": {"backend": "event", "total_nodes": 24,
                        "num_channels": 3, "superframes": 2},
}

#: Four points of a few superframes on 8-16 nodes, two lanes each, so a
#: point's kernel call can shard.
TINY = SweepSpec(
    name="tiny", experiment="case_study_full",
    axes={"total_nodes": GridAxis((8, 16)),
          "payload_bytes": GridAxis((50, 120))},
    base_params={"num_channels": 2, "superframes": 3},
    objectives={"mean_power_uw": "min"})


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


def rows_json(name, params, jobs):
    result = run_experiment(name, params=params, cache=False, seed=7,
                            jobs=jobs)
    return json.dumps(result.payload, sort_keys=True), result.jobs


def square(value):
    return value * value


class TestDefaultFanOutRowsEqualSerial:
    @pytest.mark.parametrize("name", sorted(FANNED_RUNS))
    def test_experiment_rows_are_byte_identical(self, name, forks):
        serial, serial_jobs = rows_json(name, FANNED_RUNS[name], 1)
        assert not forks and serial_jobs == 1
        default, default_jobs = rows_json(name, FANNED_RUNS[name], None)
        assert default == serial
        if MANY_CPUS:
            assert forks and default_jobs >= 2
        assert_no_child_left()

    def test_quick_optimizer_and_grid_are_byte_identical(self, tmp_path,
                                                         forks):
        optimize = get_optimize("case_study_power", quick=True)
        grid = get_sweep("case_study_power_grid", quick=True)
        serial = (run_optimize(optimize, jobs=1, cache_root=tmp_path / "a"),
                  run_sweep(grid, jobs=1, cache_root=tmp_path / "a"))
        assert not forks
        default = (run_optimize(optimize, cache_root=tmp_path / "b"),
                   run_sweep(grid, cache_root=tmp_path / "b"))
        for one, other in zip(serial, default):
            assert json.dumps(one.rows) == json.dumps(other.rows)
            assert (one.computed_points, one.cached_points) == \
                (other.computed_points, other.cached_points)
        assert bool(forks) == MANY_CPUS
        assert_no_child_left()


class TestWorkersKeepTheirOwnCpu:
    @pytest.mark.skipif(not MANY_CPUS, reason="needs two usable CPUs")
    def test_each_worker_runs_on_a_cpu_of_its_own(self, monkeypatch,
                                                  tmp_path):
        """Each worker's first task waits until the other worker has
        taken one, so both run tasks; each reports the CPU set it ran
        on."""
        first, second = sorted(os.sched_getaffinity(0))[:2]
        monkeypatch.setattr(pool, "usable_cpus", lambda: [first, second])
        parent = os.getpid()
        marks = {True: tmp_path / "caller", False: tmp_path / "child"}

        def where(_):
            in_caller = os.getpid() == parent
            marks[in_caller].touch()
            wait_for(marks[not in_caller])
            return os.getpid(), sorted(os.sched_getaffinity(0))

        before = os.sched_getaffinity(0)
        results = run_ordered(ProcessExecutor(), where, range(4))
        placed = {pid: cpus for pid, cpus in results}
        assert len(placed) == 2
        assert placed[parent] == [first]
        assert [cpus for pid, cpus in placed.items()
                if pid != parent] == [[second]]
        assert os.sched_getaffinity(0) == before
        assert_no_child_left()

    def test_a_failing_call_gives_the_caller_its_cpu_set_back(
            self, monkeypatch, tmp_path):
        """The child holds its first task until the caller has taken one,
        which fails."""
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1])
        before = os.sched_getaffinity(0)
        parent = os.getpid()
        failed = tmp_path / "failed"

        def fail_in_caller(_):
            if os.getpid() == parent:
                failed.touch()
                raise ValueError("caller stopped")
            wait_for(failed)
            return 0

        with pytest.raises(ValueError, match="caller stopped"):
            run_ordered(ProcessExecutor(), fail_in_caller, range(4))
        assert os.sched_getaffinity(0) == before
        assert_no_child_left()


class TestNesting:
    @pytest.fixture
    def shardable(self, monkeypatch):
        """Two CPUs, and every kernel call large enough to shard; a
        sharded call anywhere records itself in ``calls`` (in the caller)
        or fails its task (in a worker)."""
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1])
        monkeypatch.setattr(vectorized, "_SHARD_FLOOR", 1)
        monkeypatch.setattr(vectorized, "_PIECE_FLOOR", 1)
        calls = []
        parent = os.getpid()
        real = vectorized.BatchedChannelSimulator._run_sharded

        def run_sharded(self, superframes, workers):
            if os.getpid() != parent:
                raise AssertionError("a point's kernel call sharded")
            calls.append(workers)
            return real(self, superframes, workers)

        monkeypatch.setattr(vectorized.BatchedChannelSimulator,
                            "_run_sharded", run_sharded)
        return calls

    def test_fanned_out_points_fork_once_and_never_shard(
            self, tmp_path, shardable, forks):
        result = run_sweep(TINY, cache_root=tmp_path)
        assert result.computed_points == 4
        assert len(forks) == 1
        assert shardable == []
        assert_no_child_left()

    def test_a_lone_miss_runs_in_the_caller_and_shards(self, tmp_path,
                                                       shardable, forks):
        cache = ResultCache(root=tmp_path)
        first = run_sweep(TINY, cache=cache, jobs=1)
        assert cache.invalidate(first.points[2].cache_key)
        forks.clear()
        shardable.clear()
        resumed = run_sweep(TINY, cache=cache)
        assert (resumed.computed_points, resumed.cached_points) == (1, 3)
        assert resumed.rows == first.rows
        assert shardable == [2]
        assert len(forks) == 1  # the kernel's one shard child
        assert_no_child_left()


class TestReportedWorkers:
    def test_a_sharded_kernel_call_counts_and_a_cache_hit_does_not(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1])
        monkeypatch.setattr(vectorized, "_SHARD_FLOOR", 1)
        params = {"total_nodes": 16, "num_channels": 2, "superframes": 2}
        computed = run_experiment("case_study_full", params=params,
                                  cache_root=tmp_path)
        replayed = run_experiment("case_study_full", params=params,
                                  cache_root=tmp_path)
        assert (computed.jobs, replayed.jobs) == (2, 1)
        assert replayed.cache_hit and replayed == computed


class TestTaskFailures:
    def test_a_raising_task_keeps_its_type(self, monkeypatch, tmp_path):
        """The child fails on its first task; the caller runs its own only
        once the child has taken one."""
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1])
        parent = os.getpid()
        taken = tmp_path / "taken"

        def task(value):
            if os.getpid() == parent:
                wait_for(taken)
                return value
            taken.touch()
            raise KeyError(f"task {value} lost its key")

        with pytest.raises(KeyError, match="lost its key") as error:
            run_ordered(ProcessExecutor(), task, range(4))
        assert isinstance(error.value.__cause__, pool.WorkerFailed)
        assert "worker 1 of 2 failed on task" in str(error.value.__cause__)
        assert_no_child_left()

    def test_an_exception_that_does_not_unpickle_names_worker_and_task(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1])
        parent = os.getpid()
        taken = tmp_path / "taken"

        def task(value):
            if os.getpid() == parent:
                wait_for(taken)
                return value
            taken.touch()
            raise _NeedsTwoArguments("first", "second")

        with pytest.raises(RuntimeError,
                           match=r"worker 1 of 2 failed on task \d: "
                                 r"(?s:.*)_NeedsTwoArguments"):
            run_ordered(ProcessExecutor(), task, range(4))
        assert_no_child_left()

    @pytest.mark.parametrize("failure", [KeyboardInterrupt, ValueError])
    def test_an_interrupted_caller_kills_and_reaps_the_children(
            self, monkeypatch, failure):
        """The child would sleep for a minute; once the caller's own task
        fails or is interrupted, the call must not wait for it."""
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1, 2])
        parent = os.getpid()

        def task(value):
            if os.getpid() != parent:
                time.sleep(60)
            raise failure("caller stopped")

        started = time.monotonic()
        with pytest.raises(failure, match="caller stopped"):
            run_ordered(ProcessExecutor(), task, range(6))
        assert time.monotonic() - started < 30
        assert_no_child_left()


class _NeedsTwoArguments(Exception):
    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


class TestPolicy:
    def test_one_job_never_forks(self, no_fork):
        assert rows_json("fig6_csma", FANNED_RUNS["fig6_csma"], 1)[1] == 1

    def test_a_lone_task_runs_in_the_caller(self, monkeypatch, no_fork):
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1])
        assert run_ordered(ProcessExecutor(), square, [3]) == [9]
        assert run_ordered(ProcessExecutor(), square, [3, 4],
                           local=[0]) == [9, 16]

    def test_a_threaded_caller_never_forks(self, monkeypatch, no_fork):
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1])
        outcome = {}

        def work():
            try:
                outcome["rows"] = rows_json(
                    "fig6_csma", FANNED_RUNS["fig6_csma"], None)
            except BaseException as error:  # re-raised on the test thread
                outcome["error"] = error

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        if "error" in outcome:
            raise outcome["error"]
        assert outcome["rows"][1] == 1

    def test_a_multiprocessing_child_never_forks(self, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1])
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_map_without_fork, args=(sender,))
        child.start()
        sender.close()
        try:
            assert receiver.poll(60)
            assert receiver.recv() == "ok"
        finally:
            child.join(timeout=60)
        assert child.exitcode == 0

    def test_millisecond_tasks_fork_once_per_executor(self, monkeypatch,
                                                      forks):
        """The first call forks; it measures its tasks far below the fork
        floor, so the executor's later calls stay in the caller, and a
        call of cached tasks only leaves the measurement alone."""
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1])
        executor = ProcessExecutor()
        for _ in range(3):
            assert run_ordered(executor, square, range(4)) == [0, 1, 4, 9]
        assert run_ordered(executor, square, range(2), local=[0, 1]) == \
            [0, 1]
        assert len(forks) == 1
        assert executor.task_s * 4 < _FORK_FLOOR_S

        def slow(value):
            time.sleep(_FORK_FLOOR_S)
            return value

        assert run_ordered(executor, slow, range(2)) == [0, 1]
        assert run_ordered(executor, slow, range(2)) == [0, 1]
        assert len(forks) == 2
        assert_no_child_left()

    def test_long_task_lists_queue_chunks_and_cover_every_task(
            self, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: [0, 1])
        monkeypatch.setattr(pool, "_QUEUE_ENTRIES", 3)
        tasks = list(range(11))
        assert run_ordered(ProcessExecutor(), square, tasks,
                           local=[4]) == [square(task) for task in tasks]
        assert_no_child_left()


def _map_without_fork(sender):
    """``multiprocessing`` child: a fan-out must stay in-process."""
    def refuse():
        raise AssertionError("os.fork called in a multiprocessing child")

    os.fork = refuse
    try:
        assert run_ordered(ProcessExecutor(), square, range(4)) == \
            [0, 1, 4, 9]
        sender.send("ok")
    except BaseException as error:
        sender.send(repr(error))
