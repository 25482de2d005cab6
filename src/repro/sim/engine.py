"""Core discrete-event simulation engine.

The engine follows the classic event-list design: an :class:`Environment`
owns a heap of ``(time, priority, sequence, event)`` entries and pops them in
chronological order.  Model code is written as generator functions ("process
functions") that ``yield`` timeouts; the :class:`Process` wrapper resumes the
generator whenever the timeout it yielded fires.

The design mirrors the small subset of the ``simpy`` API the event MAC kernel
(:mod:`repro.mac.device`, :mod:`repro.mac.coordinator`) runs on —
``Environment.process``, ``Environment.timeout``, ``Environment.now`` and
``Environment.run(until=<time>)`` — so that kernel reads naturally to anyone
familiar with that library, while remaining a from-scratch implementation
suitable for the offline environment.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation kernel."""


#: Priority used for ordinary events.
PRIORITY_NORMAL = 1
#: Priority used for urgent (kernel-internal) events: process starts.
PRIORITY_URGENT = 0


class Event:
    """A point in simulated time that processes wait for by yielding it.

    An event is scheduled when it is created.  When the environment
    reaches it, it runs its callbacks — the resumes of the processes
    waiting on it — and its ``callbacks`` become ``None``.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    def __init__(self, env: "Environment", delay: float):
        if delay < 0:
            raise SimulationError(f"Negative timeout delay: {delay!r}")
        super().__init__(env)
        env._schedule(self, PRIORITY_NORMAL, delay)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks = [process._resume]
        env._schedule(self, PRIORITY_URGENT)


class Process:
    """A running process: a generator resumed each time its event fires.

    An exception the generator raises propagates out of
    :meth:`Environment.run`; a generator that returns simply stops.
    """

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError(
                "Process requires a generator (did you call the process "
                "function?)")
        self.env = env
        self._generator = generator
        Initialize(env, self)

    def _resume(self, event: Event) -> None:
        try:
            next_target = self._generator.send(None)
        except StopIteration:
            return
        if not isinstance(next_target, Event):
            raise SimulationError(
                f"Process yielded a non-event object: {next_target!r}")
        if next_target.callbacks is None:
            raise SimulationError(
                f"Process yielded an already processed event: {next_target!r}")
        next_target.callbacks.append(self._resume)


class Environment:
    """The simulation environment: clock plus event list.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds by convention
        throughout this project).
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories -------------------------------------------------
    def timeout(self, delay: float) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay)

    def process(self, generator: Generator) -> Process:
        """Register ``generator`` as a new process starting at the current time."""
        return Process(self, generator)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the next scheduled event.

        Raises
        ------
        SimulationError
            If there is no event left to process.
        """
        if not self._queue:
            raise SimulationError("No scheduled events left")
        time, _priority, _eid, event = heapq.heappop(self._queue)
        self._now = time
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the event queue is exhausted; a number —
            run every event due by that time, then set the clock to it.
        """
        stop_time = float("inf") if until is None else float(until)
        if stop_time < self._now:
            raise SimulationError(
                f"run(until={stop_time}) lies in the past (now={self._now})")
        while self._queue and self.peek() <= stop_time:
            self.step()
        if until is not None:
            self._now = stop_time
