"""Execution strategy of the experiment engine.

The engine describes its work as a flat list of *tasks* plus one *task
function*; :class:`ProcessExecutor` decides where the calls run: in the
caller, or shared between the caller and forked workers of the package's
worker pool (:mod:`repro.pool`), one per CPU this process may use, each
pulling the next task when it is free.  ``ProcessExecutor(jobs=1)`` runs
every task in the caller.

It yields ``(index, result)`` pairs.  Determinism across job counts is
the caller's contract: every task must carry its own seed (see
:func:`repro.sim.random.spawn_seeds`) so the result of task ``i`` does not
depend on which worker — or how many workers — executed it.
"""

from __future__ import annotations

from time import perf_counter
from typing import (Any, Callable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.pool import WorkerFailed, run_workers, usable_cpus, worker_count

#: Task-seconds a call must be expected to hold before it forks.  A fan-out
#: costs its forks, the reaps and the caller's copy-on-write faults after
#: them: on a 2-vCPU x86-64 host, 136 two-worker fan-outs of a synthetic
#: optimizer's millisecond tasks took 1.3 s longer than running them
#: serially (about 10 ms each, in a ~100 MB process), so two workers
#: need about 20 ms of work to gain anything.
_FORK_FLOOR_S = 0.02


class ProcessExecutor:
    """Evaluate tasks on the caller and forked pool workers.

    Parameters
    ----------
    jobs:
        Cap on the processes a call runs on; ``None`` (the default) is
        every CPU in ``os.sched_getaffinity(0)``.

    Every call of a one-job executor, a call of fewer than two shared
    tasks, and one the pool's policy keeps in one process
    (:func:`repro.pool.worker_count`: another thread alive, a
    ``multiprocessing`` child, inside a pool worker, off Linux) run in the
    caller, which yields each result as its task finishes.  Otherwise the
    workers inherit ``function`` and the tasks through the fork, and only
    results travel back, pickled.  A task's exception reaches the caller
    as its own type when it pickles, and as
    :class:`repro.pool.WorkerFailed` (a :class:`RuntimeError` naming the
    worker and the task) when it does not.

    A call also stays in the caller when this executor's previous call
    measured its tasks so short that the call's share is expected to hold
    less than :data:`_FORK_FLOOR_S` of work: an optimizer's rounds of
    millisecond points then fork once, not once per round.
    """

    def __init__(self, jobs: Optional[int] = None):
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = len(usable_cpus()) if jobs is None else jobs
        #: Seconds per shared task the previous call measured (``None``
        #: before the first call).
        self.task_s: Optional[float] = None

    def map_tasks(self, function: Callable[[Any], Any],
                  tasks: Sequence[Any],
                  local: Iterable[int] = ()) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, function(task))`` for every task, in index
        order: each as it finishes when the call runs in the caller, all
        once every task is done when it forks.

        The caller runs the ``local`` indices itself (a sweep's cached
        points); only the others are shared with forked workers.
        """
        tasks = list(tasks)
        local = set(local)
        shared = len(tasks) - len(local)
        small = self.task_s is not None \
            and self.task_s * shared < _FORK_FLOOR_S
        workers = worker_count(1 if small else min(self.jobs, shared))

        def run(indices) -> Iterator[Tuple[int, Any, float]]:
            for index in indices:
                started = perf_counter()
                result = function(tasks[index])
                yield index, result, perf_counter() - started

        if workers < 2:
            done = run(range(len(tasks)))
        else:
            try:
                shares = run_workers(lambda indices: list(run(indices)),
                                     len(tasks), workers, sorted(local))
            except WorkerFailed as failure:
                if failure.error is None:
                    raise
                raise failure.error from failure
            done = sorted(item for share in shares for item in share)
        shared_s = 0.0
        for index, result, seconds in done:
            if index not in local:
                shared_s += seconds
            yield index, result
        if shared:
            self.task_s = shared_s / shared

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ProcessExecutor(jobs={self.jobs})"


def make_executor(jobs: Optional[int] = None):
    """Build the executor matching a ``--jobs`` request.

    ``1`` (or less) runs every task in the caller; ``None`` (every usable
    CPU) or anything larger shares them with the worker pool up to that
    cap.
    """
    return ProcessExecutor(jobs=None if jobs is None else max(1, jobs))


def run_ordered(executor, function: Callable[[Any], Any],
                tasks: Sequence[Any],
                on_result: Optional[Callable[[int, Any], None]] = None,
                local: Iterable[int] = ()) -> List[Any]:
    """Evaluate all tasks and return the results in input order.

    ``on_result`` is invoked as each ``(index, result)`` arrives, which
    lets callers stream progress while still receiving a deterministic,
    input-ordered list; ``local`` is passed to the executor's
    ``map_tasks``.  ``None`` runs every task in the caller.
    """
    tasks = list(tasks)
    results: List[Any] = [None] * len(tasks)
    for index, result in (executor or ProcessExecutor(jobs=1)).map_tasks(
            function, tasks, local):
        results[index] = result
        if on_result is not None:
            on_result(index, result)
    return results
