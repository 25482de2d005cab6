"""Forked workers and spawned helpers on CPUs of their own: how the
package uses more than one CPU.

The batched kernel's lane pieces (:mod:`repro.mac.vectorized`) and the
engine's task lists (:class:`repro.runner.executor.ProcessExecutor`) both
fan out here.  :func:`worker_count` is the one policy that sizes a
fan-out; :func:`run_workers` runs it on the caller and ``os.fork``
children, each pinned to a CPU of its own (a forked child may otherwise
stay on its parent's CPU where the cpuset does not balance load), each
pulling the next item from one shared pipe when it is free.  Children
inherit the work through the fork and send their results back pickled;
every child is reaped, and the caller's CPU set restored, before
:func:`run_workers` returns or raises.

A fork is unsafe while other threads run, so a threaded caller (``repro
serve``'s worker threads) shares its large kernel calls with
:class:`KernelHelpers` instead: long-lived single-threaded processes,
started through :mod:`subprocess` (which execs at once, so threads do not
matter) as calls ask for them, and reused by every later call.
:func:`run_helpers` runs one call's items on the calling thread and its
idle helpers, which pull from one shared queue as forked workers do; each
item a helper takes travels to it pickled.  ``docs/architecture.md``
(*Worker pool*) has the measurements behind each choice.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (Any, Callable, Iterable, Iterator, List, Optional, Set,
                    Tuple)

#: Whether this process is a pool worker: a forked child for its whole
#: life, the caller while it runs its own share of a fan-out.
_working = False

#: The list :func:`usage` collects fan-out sizes into, per thread/context.
_usage: ContextVar[Optional[List[int]]] = ContextVar("repro_pool_usage",
                                                     default=None)

#: The :class:`KernelHelpers` lent to this thread/context's calls.
_lent: ContextVar[Optional["KernelHelpers"]] = ContextVar(
    "repro_pool_helpers", default=None)

#: Seconds a stopped helper gets to exit at end of file before it is killed.
_HELPER_EXIT_S = 10.0

#: Queue entries written before the first fork, four bytes each: 4096
#: bytes is one page, the least a Linux pipe holds, so the write never
#: blocks.  Longer task lists queue chunks of consecutive items.
_QUEUE_ENTRIES = 1024


class WorkerFailed(RuntimeError):
    """A forked child or a helper raised, or exited without replying:
    ``worker`` (1 to ``workers - 1``) names it, ``index`` the item it was
    running (``None`` before its first), ``text`` is the traceback or exit
    status, and ``error`` the exception itself when it unpickled (``None``
    if not, and always for a helper)."""

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
    if threading.active_count() > 1:
        return 1
    return _cpu_budget(cap)


def _cpu_budget(cap: int) -> int:
    """:func:`worker_count` without its thread rule, which a spawned
    :class:`KernelHelpers` process does not need."""
    if cap < 2 or _working or not sys.platform.startswith("linux"):
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


# ---------------------------------------------------------------------------
# spawned helpers for threaded callers
# ---------------------------------------------------------------------------

def _read_exact(fd: int, size: int) -> Optional[bytes]:
    """``size`` bytes from ``fd``, or ``None`` at end of file."""
    chunks = []
    while size:
        chunk = os.read(fd, min(size, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _receive(fd: int) -> Optional[bytes]:
    """One length-prefixed message from ``fd`` (``None`` at end of file)."""
    header = _read_exact(fd, 8)
    return None if header is None else _read_exact(
        fd, int.from_bytes(header, "little"))


def _send(fd: int, data: bytes) -> None:
    """Write ``data`` to ``fd`` as one length-prefixed message."""
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _helper_main() -> None:
    """Body of a spawned helper: keep to the CPU named on the command
    line, then run every pickled call read from standard input and write
    back its pickled ``(traceback or None, value)``, until end of file —
    when its owner stops it or dies.  Standard output carries only the
    replies: anything printed goes to standard error."""
    global _working
    import pickle
    import traceback
    _working = True
    pin({int(sys.argv[1])})
    replies = os.dup(1)
    os.dup2(2, 1)
    while True:
        request = _receive(0)
        if request is None:
            return
        try:
            reply = pickle.dumps((None, pickle.loads(request)()), -1)
        except Exception:
            reply = pickle.dumps((traceback.format_exc(), None), -1)
        try:
            _send(replies, reply)
        except BrokenPipeError:
            return


class _Helper:
    """One spawned helper process, the pipes to it and its state:
    ``starting`` until its warm-up call returns, then ``idle`` or ``busy``
    (held by one :func:`run_helpers` call), or ``dead``."""

    def __init__(self, cpu: int, warm_up: Callable[[], Any]):
        import subprocess
        import repro
        # The caller's copy of the package, wherever it came from: a
        # host that put ``src`` on ``sys.path`` set no ``PYTHONPATH``.
        source = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (source, env.get("PYTHONPATH")) if path)
        # Its own session: a terminal's Ctrl-C reaches only the owner,
        # which stops its helpers by closing their pipes.
        self.process = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.pool import _helper_main; _helper_main()",
             str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
            env=env, start_new_session=True)
        self.cpu = cpu
        self.state = "starting"
        self.send(warm_up)

    def __str__(self) -> str:
        return f"helper {self.process.pid} on CPU {self.cpu}"

    def send(self, call: Callable[[], Any]) -> None:
        """Send ``call`` to run; a helper that is gone fails the
        :meth:`result` that follows."""
        import pickle
        try:
            _send(self.process.stdin.fileno(), pickle.dumps(call, -1))
        except BrokenPipeError:
            pass

    def result(self) -> tuple:
        """Wait for the reply to the call sent last: ``(what went wrong or
        None, value)``.  A helper that exits without replying is ``dead``
        and reaped."""
        import pickle
        reply = _receive(self.process.stdout.fileno())
        if reply is not None:
            failure, value = pickle.loads(reply)
            return (None if failure is None else f"raised: {failure}"), value
        code = self.close()
        how = (f"exited with status {code}" if code >= 0 else
               f"was killed by signal {-code}")
        return f"{how} without replying", None

    def check_warm_up(self) -> None:
        """Leave ``starting`` once the warm-up call has returned, without
        waiting for it: ``idle``, or closed if the warm-up failed."""
        import select
        if select.select([self.process.stdout], [], [], 0)[0]:
            failure, _ = self.result()
            if failure is None:
                self.state = "idle"
            else:
                self.close()

    def close(self) -> int:
        """Close the request pipe (the helper exits at end of file), reap
        the helper, leave it ``dead`` and return its exit status; closing
        it again only returns the status."""
        import subprocess
        self.state = "dead"
        self.process.stdin.close()
        try:
            code = self.process.wait(timeout=_HELPER_EXIT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.process.stdout.close()
        return code


class KernelHelpers:
    """Helper processes that a threaded caller's large kernel calls share
    their pieces with.

    Nothing starts with the object.  A call that asks for more helpers
    than it finds idle or starting (:func:`lent_helpers`) spawns the
    difference and uses none of them yet; the set grows to at most one
    helper per usable CPU beyond the first (:func:`worker_count`'s policy,
    less its thread rule: a helper is spawned, not forked), each kept on
    a CPU of its own, filled from the last.  A helper is idle once its
    warm-up call returned, and no call waits for one that is starting or
    busy with another call.  A call's own thread keeps to the first CPU
    that no busy helper and no other call holds; a call that finds none
    takes no helper.  A helper that dies is reaped and not used again.  A
    spawn that fails (say, ``EAGAIN`` at the process limit), or a warm-up
    that does, ends spawning until :meth:`stop`: calls go on with the
    helpers already up, or run alone.  :meth:`stop` ends every helper,
    and a helper whose owner dies exits at the end of file on its pipe.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._helpers: List[_Helper] = []
        self._callers: Set[int] = set()  # the CPUs of calls in progress
        self._spawning = True

    @contextmanager
    def lend(self) -> Iterator[None]:
        """Offer these helpers to the kernel calls of the enclosed block
        (this thread's only)."""
        token = _lent.set(self)
        try:
            yield
        finally:
            _lent.reset(token)

    def wait_ready(self, timeout: float = 60.0) -> int:
        """Wait until no helper is starting; the number now idle."""
        import time
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                self._settle()
                idle = sum(helper.state == "idle"
                           for helper in self._helpers)
                starting = any(helper.state == "starting"
                               for helper in self._helpers)
            if not starting or time.monotonic() > deadline:
                return idle
            time.sleep(0.01)

    def _drop_dead(self) -> None:
        self._helpers = [helper for helper in self._helpers
                         if helper.state != "dead"]

    def _settle(self) -> None:
        """Make idle every helper whose warm-up returned; one whose warm-up
        failed is dropped and, like a failed spawn, ends spawning."""
        for helper in self._helpers:
            if helper.state == "starting":
                helper.check_warm_up()
                if helper.state == "dead":
                    self._spawning = False
        self._drop_dead()

    def _spawn(self, wanted: int, cpus: List[int],
               warm_up: Callable[[], Any]) -> None:
        """Spawn helpers on free ``cpus``, from the last, until ``wanted``
        are idle or starting."""
        ready = sum(helper.state != "busy" for helper in self._helpers)
        placed = {helper.cpu for helper in self._helpers}
        free = [cpu for cpu in reversed(cpus) if cpu not in placed]
        for cpu in free[:max(0, wanted - ready)]:
            try:
                self._helpers.append(_Helper(cpu, warm_up))
            except OSError:
                self._spawning = False
                return

    def _take(self, limit: int, warm_up: Callable[[], Any]
              ) -> Tuple[List[_Helper], Optional[int]]:
        with self._lock:
            self._settle()
            cpus = usable_cpus()
            cpus = cpus[:_cpu_budget(len(cpus))]
            if self._spawning:
                self._spawn(limit, cpus[1:], warm_up)
            held = self._callers | {helper.cpu for helper in self._helpers
                                    if helper.state == "busy"}
            taken = [helper for helper in self._helpers
                     if helper.state == "idle" and helper.cpu not in held
                     ][:limit]
            held.update(helper.cpu for helper in taken)
            cpu = next((cpu for cpu in cpus if cpu not in held), None)
            if cpu is None or not taken:
                return [], None
            for helper in taken:
                helper.state = "busy"
            self._callers.add(cpu)
            return taken, cpu

    def _give_back(self, helper: _Helper) -> None:
        with self._lock:
            kept = helper.state != "dead" and helper in self._helpers
            if kept:
                helper.state = "idle"
            self._drop_dead()
        if not kept:
            helper.close()

    def _leave(self, cpu: int) -> None:
        with self._lock:
            self._callers.discard(cpu)

    def stop(self) -> None:
        """End every helper not held by a call (one that is ends when
        its call gives it back) and reap it; a later call spawns anew."""
        with self._lock:
            helpers, self._helpers = self._helpers, []
            self._spawning = True
            free = [helper for helper in helpers if helper.state != "busy"]
        for helper in free:
            helper.close()


def lent_helpers(limit: int, warm_up: Callable[[], Any]
                 ) -> Tuple[List[_Helper], Optional[int]]:
    """Up to ``limit`` idle helpers of the :class:`KernelHelpers` lent to
    this thread (:meth:`KernelHelpers.lend`), taken for one
    :func:`run_helpers` call, and the CPU the call's own thread keeps to:
    none, and ``None``, when no set is lent, inside a pool worker, while
    every helper starts or is busy, or when every CPU is held.  A call
    that finds fewer than ``limit`` helpers idle or starting spawns the
    difference, each new helper running ``warm_up`` (a picklable
    callable) first."""
    helpers = _lent.get()
    if helpers is None or limit < 1 or _working:
        return [], None
    return helpers._take(limit, warm_up)


def run_helpers(work: Callable[[Iterator[int]], Any],
                request: Callable[[int], Callable[[], Any]], count: int,
                helpers: List[_Helper], cpu: int) -> List[Any]:
    """Run items ``0 .. count - 1`` on the calling thread and ``helpers``
    (both from :func:`lent_helpers`).

    Every worker pulls the next item from one shared queue when it is
    free.  The caller calls ``work`` once over the items it takes, kept on
    ``cpu``; one thread per helper sends it the pickled ``request(index)``
    of each item it takes and waits for the reply.  Returns the caller's
    value, then each helper's list of values in the order it ran its
    items.

    A helper that raises, or dies, raises :class:`WorkerFailed` naming it
    once the caller's share is done; an exception of the caller's own share
    propagates as it is, once the helpers' items in flight are back.
    Every helper, and ``cpu``, is given back to its set before this
    returns or raises.
    """
    owner = _lent.get()
    counts = _usage.get()
    if counts is not None:
        counts.append(1 + len(helpers))
    queue = iter(range(count))
    lock = threading.Lock()
    stop = threading.Event()
    failures: List[tuple] = []
    values: List[List[Any]] = [[] for _ in helpers]

    def take() -> Optional[int]:
        with lock:
            return None if stop.is_set() else next(queue, None)

    def serve(helper: _Helper, done: List[Any]) -> None:
        try:
            for index in iter(take, None):
                helper.send(request(index))
                failure, value = helper.result()
                if failure is not None:
                    failures.append((helper, index, failure))
                    stop.set()
                    return
                done.append(value)
        except BaseException:
            import traceback
            failures.append((helper, None, "could not be served: "
                             + traceback.format_exc()))
            stop.set()
        finally:
            owner._give_back(helper)

    threads = []
    allowed = os.sched_getaffinity(0)
    try:
        for helper, done in zip(helpers, values):
            thread = threading.Thread(target=serve, args=(helper, done),
                                      daemon=True, name=f"{helper}")
            thread.start()
            threads.append(thread)
        pin({cpu})
        local = work(iter(take, None))
    except BaseException:
        stop.set()
        raise
    finally:
        pin(allowed)
        for helper in helpers[len(threads):]:
            owner._give_back(helper)
        for thread in threads:
            thread.join()
        owner._leave(cpu)
    if failures:
        helper, index, text = failures[0]
        raise WorkerFailed(helpers.index(helper) + 1, 1 + len(helpers),
                           index, f"{helper} {text}")
    return [local, *values]
