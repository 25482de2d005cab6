"""Forked workers on CPUs of their own: how the package uses more than one CPU.

The batched kernel's lane pieces (:mod:`repro.mac.vectorized`) and the
engine's task lists (:class:`repro.runner.executor.ProcessExecutor`) both
fan out here.  :func:`worker_count` is the one policy that sizes a
fan-out; :func:`run_workers` runs it on the caller and ``os.fork``
children, each pinned to a CPU of its own (a forked child may otherwise
stay on its parent's CPU where the cpuset does not balance load), each
pulling the next item from one shared pipe when it is free.  Children
inherit the work through the fork and send their results back pickled;
every child is reaped, and the caller's CPU set restored, before
:func:`run_workers` returns or raises.  ``docs/architecture.md`` (*Worker
pool*) has the measurements behind each choice.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterable, Iterator, List, Optional

#: Whether this process is a pool worker: a forked child for its whole
#: life, the caller while it runs its own share of a fan-out.
_working = False

#: The list :func:`usage` collects fan-out sizes into, per thread/context.
_usage: ContextVar[Optional[List[int]]] = ContextVar("repro_pool_usage",
                                                     default=None)

#: Queue entries written before the first fork, four bytes each: 4096
#: bytes is one page, the least a Linux pipe holds, so the write never
#: blocks.  Longer task lists queue chunks of consecutive items.
_QUEUE_ENTRIES = 1024


class WorkerFailed(RuntimeError):
    """A forked child raised, or exited without replying: ``worker`` (1 to
    ``workers - 1``) names it, ``index`` the item it was running (``None``
    before its first), ``text`` is the traceback or exit status, and
    ``error`` the exception itself when it unpickled (``None`` if not)."""

    def __init__(self, worker: int, workers: int, index: Optional[int],
                 text: str, error: Optional[BaseException] = None):
        where = "" if index is None else f" on task {index}"
        super().__init__(f"worker {worker} of {workers} failed{where}: "
                         f"{text}")
        self.worker, self.index, self.text, self.error = (worker, index,
                                                          text, error)


def usable_cpus() -> List[int]:
    """The CPUs this process may run on (``taskset`` narrows the set);
    where the platform has no affinity call, every CPU."""
    if not hasattr(os, "sched_getaffinity"):
        return list(range(os.cpu_count() or 1))
    return sorted(os.sched_getaffinity(0))


def pin(cpus: Iterable[int]) -> None:
    """Keep the calling process on ``cpus``; a set it may not use leaves
    the process where it is."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def worker_count(cap: int) -> int:
    """How many processes a fan-out of up to ``cap`` workers runs on.

    One, the caller alone, off Linux; while another Python thread is
    alive, because a fork copies only the calling thread and a lock
    another thread holds stays held in the child (so ``repro serve``'s
    worker threads run serially); inside a ``multiprocessing`` child; and
    inside a pool worker, so fan-outs do not nest.  Otherwise one worker
    per CPU this process may run on (:func:`usable_cpus`), up to ``cap``.
    Native threads are not counted: numpy's OpenBLAS pool shuts itself
    down in a fork handler, and no worker calls a BLAS routine.
    """
    if cap < 2 or _working or not sys.platform.startswith("linux") \
            or threading.active_count() > 1:
        return 1
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None \
            and multiprocessing.parent_process() is not None:
        return 1
    return max(1, min(len(usable_cpus()), cap))


@contextmanager
def usage() -> Iterator[List[int]]:
    """Collect the worker count of every fan-out :func:`run_workers` runs
    in this context (a thread starts with none), so a run can report the
    processes it used rather than its cap."""
    counts: List[int] = []
    token = _usage.set(counts)
    try:
        yield counts
    finally:
        _usage.reset(token)


def _pull(queue: int, shared: List[int], chunk: int,
          claimed: List[int]) -> Iterator[int]:
    """The items one worker takes from the shared ``queue`` pipe, each
    appended to ``claimed`` before it is handed out."""
    while True:
        entry = os.read(queue, 4)
        if not entry:
            return
        start = int.from_bytes(entry, "little") * chunk
        for index in shared[start:start + chunk]:
            claimed.append(index)
            yield index


def _serve(work: Callable[[Iterator[int]], Any], queue: int,
           shared: List[int], chunk: int, cpu: int, write_fd: int) -> None:
    """Forked-child side of :func:`run_workers`: move to ``cpu``, run
    ``work`` over the pulled items, send the pickled ``(failure, value)``
    reply through ``write_fd`` and leave through ``os._exit``, so the child
    never unwinds into the caller's frames.  Everything ``work`` raises,
    interrupts included, becomes ``failure``."""
    global _working
    try:
        import pickle
        _working = True
        pin({cpu})
        claimed: List[int] = []
        try:
            reply = pickle.dumps(
                (None, work(_pull(queue, shared, chunk, claimed))), -1)
        except BaseException as error:
            import traceback
            try:
                blob = pickle.dumps(error, -1)
            except Exception:
                blob = None
            reply = pickle.dumps(((claimed[-1] if claimed else None,
                                   traceback.format_exc(), blob), None), -1)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(reply)
    finally:
        os._exit(0)


def _silent_exit(worker: int, workers: int, pid: int) -> WorkerFailed:
    """The failure of a child that exited (say, killed out of memory)
    without replying; its status is peeked, so the caller still reaps it."""
    ended = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    status = (f"it exited with status {ended.si_status}"
              if ended.si_code == os.CLD_EXITED else
              f"it was killed by signal {ended.si_status}")
    return WorkerFailed(worker, workers, None, status + " without replying")


def run_workers(work: Callable[[Iterator[int]], Any], count: int,
                workers: int, local: Iterable[int] = ()) -> List[Any]:
    """Run items ``0 .. count - 1`` on ``workers`` processes.

    ``work`` is called once in each worker with an iterator over the
    items that worker takes, and returns one value for all of them.  The
    caller runs the ``local`` items first, then pulls from the shared
    queue like every child.  Returns the workers' values, the caller's
    first, then the children's in fork order.

    A child that raises, or exits without replying, raises
    :class:`WorkerFailed`; an exception of the caller's own share
    propagates as it is.  A failed ``os.fork`` (say, ``EAGAIN`` at the
    process limit) raises after the children already forked are reaped.
    """
    global _working
    import pickle
    import signal
    counts = _usage.get()
    if counts is not None:
        counts.append(workers)
    local = list(local)
    skip = set(local)
    shared = [index for index in range(count) if index not in skip]
    chunk = max(1, -(-len(shared) // _QUEUE_ENTRIES))
    cpus = usable_cpus()
    allowed = os.sched_getaffinity(0)
    # Every entry is queued, and the write end closed, before the first
    # fork, so a worker's read ends at an empty pipe.
    queue, feed = os.pipe()
    os.write(feed, b"".join(entry.to_bytes(4, "little") for entry
                            in range(-(-len(shared) // chunk))))
    os.close(feed)
    children: List[tuple] = []  # (pid, read end)
    finished = False
    try:
        pin({cpus[0]})
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _serve(work, queue, shared, chunk, cpus[worker], write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        _working = True
        try:
            values = [work(itertools.chain(
                local, _pull(queue, shared, chunk, [])))]
        finally:
            _working = False
        for worker, (pid, pipe) in enumerate(children, 1):
            data = pipe.read()
            if not data:
                raise _silent_exit(worker, workers, pid)
            failure, value = pickle.loads(data)
            if failure is not None:
                index, text, blob = failure
                try:
                    error = None if blob is None else pickle.loads(blob)
                except Exception:  # an exception type that does not unpickle
                    error = None
                raise WorkerFailed(worker, workers, index, text, error)
            values.append(value)
        finished = True
    finally:
        os.close(queue)
        for pid, pipe in children:
            pipe.close()
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        pin(allowed)
    return values

