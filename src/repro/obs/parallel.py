"""Telemetry transport across the worker-pool boundary.

:class:`TracedExecutor` wraps the engine's executor, whether it runs the
tasks in the caller or on forked pool workers.  Each task runs under a
*fresh* buffer :class:`~repro.obs.tracer.Tracer` inside its worker, which
sends the buffer's export back with the result.  The parent streams results
through unchanged (callers still see ``(index, result)``) and, once the
task list drains, grafts the buffers into its own tracer **in task-index
order** — so the merged span tree is identical for ``--jobs 1`` and
``--jobs N`` and only the artifact's ``"timing"`` field differs.

Executor telemetry recorded on the timing side:

``executor.queue_wait_s`` (meter)
    Per task, how long it sat between submission in the parent and its
    first instruction in a worker.  Both endpoints read
    ``time.monotonic()``, which is a system-wide clock on the platforms
    we support, so the cross-process difference is meaningful; it is
    clamped at zero against scheduler jitter.
``executor.utilization`` (meter)
    One observation per ``map_tasks`` call: total busy worker time over
    ``wall x workers``, clamped to ``[0, 1]``, where ``workers`` counts
    the processes that ran the call's tasks (not the ``jobs`` cap).
``executor.tasks`` (counter)
    Tasks executed through the wrapper.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Iterable, Iterator, Sequence, Tuple

from repro.obs.tracer import Tracer, activate


class _TracedOutcome:
    """Picklable result envelope of one traced task."""

    __slots__ = ("result", "export", "started_monotonic", "duration_s", "pid")

    def __init__(self, result: Any, export: dict, started_monotonic: float,
                 duration_s: float, pid: int):
        self.result = result
        self.export = export
        self.started_monotonic = started_monotonic
        self.duration_s = duration_s
        self.pid = pid


class TracedExecutor:
    """Wrap an executor so every task reports into ``tracer``.

    Transparent to callers: ``jobs`` and the ``map_tasks`` contract are
    the inner executor's.  Buffer merge happens after the last task
    arrives, in task-index order, keeping merged span ids deterministic
    across executors and completion orders.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    @property
    def jobs(self) -> int:
        return self.inner.jobs

    def map_tasks(self, function: Callable[[Any], Any],
                  tasks: Sequence[Any],
                  local: Iterable[int] = ()) -> Iterator[Tuple[int, Any]]:
        tasks = list(tasks)
        if not tasks:
            return

        def traced(task: Any) -> _TracedOutcome:
            started = time.monotonic()
            begin = time.perf_counter()
            buffer = Tracer(name="task")
            with activate(buffer):
                result = function(task)
            return _TracedOutcome(result, buffer.export(), started,
                                  time.perf_counter() - begin, os.getpid())

        outcomes = {}
        submitted = time.monotonic()
        wall_begin = time.perf_counter()
        for index, outcome in self.inner.map_tasks(traced, tasks, local):
            outcomes[index] = outcome
            yield index, outcome.result
        wall = time.perf_counter() - wall_begin
        tracer = self.tracer
        busy = 0.0
        for index in sorted(outcomes):
            outcome = outcomes[index]
            tracer.merge_export(outcome.export, name=f"task[{index}]",
                                worker=outcome.pid)
            tracer.meter_record("executor.queue_wait_s",
                                max(0.0, outcome.started_monotonic - submitted))
            tracer.count("executor.tasks")
            busy += outcome.duration_s
        if wall > 0.0:
            pids = {outcome.pid for outcome in outcomes.values()}
            capacity = wall * len(pids)
            tracer.meter_record("executor.utilization",
                                min(1.0, busy / capacity))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TracedExecutor({self.inner!r})"
