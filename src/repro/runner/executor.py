"""Execution strategies for the experiment engine.

The engine describes its work as a flat list of picklable *tasks* plus one
top-level *task function*; an executor decides where the calls run.  Two
strategies are provided:

* :class:`SerialExecutor` — evaluate in the calling process, in order.
* :class:`ProcessExecutor` — fan the tasks out over a
  :class:`concurrent.futures.ProcessPoolExecutor`, chunked to amortise the
  inter-process round-trip, yielding results as they complete.

Both yield ``(index, result)`` pairs so callers can either stream results as
they arrive (progress reporting, incremental table rows) or reassemble the
deterministic input order.  Determinism across strategies is the caller's
contract: every task must carry its own seed (see
:func:`repro.sim.random.spawn_seeds`) so the result of task ``i`` does not
depend on which worker — or how many workers — executed it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import FIRST_COMPLETED, wait
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple


def _run_chunk(function: Callable[[Any], Any],
               chunk: Sequence[Tuple[int, Any]]) -> List[Tuple[int, Any]]:
    """Worker entry point: evaluate one chunk of ``(index, task)`` pairs."""
    return [(index, function(task)) for index, task in chunk]


class SerialExecutor:
    """Evaluate tasks one after another in the calling process.

    This is the reference strategy: parallel strategies must produce the same
    ``(index, result)`` multiset for the same task list.
    """

    #: Worker count, kept for symmetry with :class:`ProcessExecutor`.
    jobs = 1

    def map_tasks(self, function: Callable[[Any], Any],
                  tasks: Sequence[Any]) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, function(task))`` in input order."""
        for index, task in enumerate(tasks):
            yield index, function(task)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "SerialExecutor()"


class ProcessExecutor:
    """Evaluate tasks on a process pool, yielding results as they complete.

    Parameters
    ----------
    jobs:
        Worker process count; defaults to ``os.cpu_count()``.
    chunksize:
        Tasks shipped per inter-process call.  The default splits the task
        list into about four chunks per worker, which keeps the pool busy
        while bounding the pickling overhead.

    Notes
    -----
    ``function`` and every task must be picklable (module-level function,
    plain-data task tuples).  Results are yielded unordered; callers that
    need the input order sort by the yielded index.
    """

    def __init__(self, jobs: Optional[int] = None,
                 chunksize: Optional[int] = None):
        resolved = jobs if jobs is not None else (os.cpu_count() or 1)
        if resolved < 1:
            raise ValueError("jobs must be at least 1")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be at least 1")
        self.jobs = resolved
        self.chunksize = chunksize

    def _chunks(self, tasks: Sequence[Any]) -> List[List[Tuple[int, Any]]]:
        indexed = list(enumerate(tasks))
        size = self.chunksize or max(1, math.ceil(len(indexed) / (self.jobs * 4)))
        return [indexed[start:start + size]
                for start in range(0, len(indexed), size)]

    def map_tasks(self, function: Callable[[Any], Any],
                  tasks: Sequence[Any]) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, function(task))`` pairs in completion order."""
        # Imported here: the process pool loads multiprocessing, which a
        # serial run or a cache hit never needs.
        from concurrent.futures import ProcessPoolExecutor
        tasks = list(tasks)
        if not tasks:
            return
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            pending = {pool.submit(_run_chunk, function, chunk)
                       for chunk in self._chunks(tasks)}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield from future.result()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ProcessExecutor(jobs={self.jobs}, chunksize={self.chunksize})"


def make_executor(jobs: Optional[int] = None,
                  chunksize: Optional[int] = None):
    """Build the executor matching a ``--jobs`` request.

    ``jobs`` of ``None`` or ``1`` selects the serial strategy; anything
    larger selects a process pool with that many workers.
    """
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ProcessExecutor(jobs=jobs, chunksize=chunksize)


def run_ordered(executor, function: Callable[[Any], Any],
                tasks: Sequence[Any],
                on_result: Optional[Callable[[int, Any], None]] = None) -> List[Any]:
    """Evaluate all tasks and return the results in input order.

    ``on_result`` is invoked as each ``(index, result)`` arrives (completion
    order), which lets callers stream progress while still receiving a
    deterministic, input-ordered list.
    """
    tasks = list(tasks)
    results: List[Any] = [None] * len(tasks)
    for index, result in (executor or SerialExecutor()).map_tasks(function, tasks):
        results[index] = result
        if on_result is not None:
            on_result(index, result)
    return results
