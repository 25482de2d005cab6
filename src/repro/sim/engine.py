"""Core discrete-event simulation engine.

The engine follows the classic event-list design: an :class:`Environment`
owns a heap of ``(time, priority, sequence, event)`` entries and pops them in
chronological order.  Model code is written as generator functions ("process
functions") that ``yield`` events; the :class:`Process` wrapper resumes the
generator whenever the yielded event is triggered.

The design mirrors a small subset of the ``simpy`` API
(``Environment.process``, ``Environment.timeout``, ``Environment.run``,
``Event.succeed`` / ``Event.fail``), enough for the event MAC kernel
(:mod:`repro.mac.device`, :mod:`repro.mac.coordinator`), so that kernel reads
naturally to anyone familiar with that library, while remaining a from-scratch
implementation suitable for the offline environment.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation kernel."""


#: Priority used for ordinary events.
PRIORITY_NORMAL = 1
#: Priority used for urgent (kernel-internal) events: process starts.
PRIORITY_URGENT = 0


class Event:
    """A condition that may happen at some point in simulated time.

    An event starts *pending*, becomes *triggered* when scheduled with a value
    (or an exception), and *processed* once all its callbacks have run.
    Processes wait for events by yielding them.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def processed(self) -> bool:
        """``True`` once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        Raises
        ------
        SimulationError
            If the event has not been triggered yet.
        """
        if not self._triggered:
            raise SimulationError("Event value is not yet available")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("Event has already been triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self, PRIORITY_NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the event.
        """
        if self._triggered:
            raise SimulationError("Event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.env._schedule(self, PRIORITY_NORMAL)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "processed" if self.processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"Negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        self._triggered = True
        env._schedule(self, PRIORITY_NORMAL, delay)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks = [process._resume]
        self._value = None
        self._triggered = True
        env._schedule(self, PRIORITY_URGENT)


class Process(Event):
    """A running process: wraps a generator and is itself an event.

    The process event triggers when the generator returns (value = return
    value) or raises (failure).  Other processes can therefore wait on it.
    """

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                "Process requires a generator (did you call the process "
                "function?)")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not terminated."""
        return not self._triggered

    # -- kernel machinery --------------------------------------------------
    def _resume(self, event: Event) -> None:
        try:
            if event._exception is not None:
                event._defused = True
                next_target = self._generator.throw(event._exception)
            else:
                next_target = self._generator.send(event._value)
        except StopIteration as stop:
            self._triggered = True
            self._value = stop.value
            self.env._schedule(self, PRIORITY_NORMAL)
            return
        except BaseException as exc:
            self._triggered = True
            self._exception = exc
            self.env._schedule(self, PRIORITY_NORMAL)
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
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

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
        if callbacks:
            for callback in callbacks:
                callback(event)
        if event._exception is not None and not event._defused:
            raise event._exception

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the event queue is exhausted;
            a number — run until the clock reaches that time;
            an :class:`Event` — run until that event has been processed and
            return its value.
        """
        if until is None:
            stop_time = float("inf")
            stop_event: Optional[Event] = None
        elif isinstance(until, Event):
            stop_time = float("inf")
            stop_event = until
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"run(until={stop_time}) lies in the past (now={self._now})")
            stop_event = None

        while self._queue:
            if self.peek() > stop_time:
                self._now = stop_time
                return None
            self.step()
            if stop_event is not None and stop_event.processed:
                if stop_event._exception is not None:
                    raise stop_event._exception
                return stop_event._value
        if stop_event is not None and not stop_event.processed:
            raise SimulationError(
                "run() terminated because the event queue is empty, but the "
                "requested stop event never fired")
        if until is not None and stop_event is None:
            self._now = stop_time
        return None
