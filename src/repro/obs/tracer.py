"""Hierarchical span tracer with counters, meters and worker-buffer merge.

One :class:`Tracer` collects the telemetry of one run: a tree of
:class:`Span` records (identity, nesting, deterministic attributes and
counters — durations are kept *separately*, see below), a set of named
global counters (:class:`repro.sim.monitor.CounterMonitor`) and duration
meters (:class:`repro.sim.monitor.Monitor`).

Two recording styles cover the two kinds of call site:

* ``with tracer.span("driver:fig6_csma", kind="driver"):`` — a context
  manager measuring the enclosed block.  For orchestration code.
* ``tracer.record_span("beacon_grid", grid_s, kind="phase")`` — attach a
  *pre-measured* span.  For kernels, which accumulate per-phase elapsed
  time into plain floats across their round loop (guarded on
  ``tracer.enabled``) and emit once at the end, so even an enabled trace
  allocates no span objects inside hot loops.

The deterministic / timed split
-------------------------------
Span identity, nesting, names, kinds, attributes and counters are
deterministic for a fixed seed — they are what serial and parallel runs
of the same workload must agree on.  Durations (monotonic clock deltas),
meters and worker ids are not, so they live apart (``Span.duration_s``,
``Tracer.meters``, ``Tracer.workers``) and the trace artifact confines
them to its single ``"timing"`` field.

Worker-pool transport: a worker activates its own buffer tracer, runs
the task, and sends :meth:`Tracer.export` back with the result; the
parent grafts the buffers in task order via :meth:`Tracer.merge_export`,
renumbering span ids deterministically — a ``--jobs 8`` trace equals the
serial trace modulo the timing field.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

from repro.sim.monitor import CounterMonitor, Monitor


class Span:
    """One node of the trace tree.

    ``attrs`` and ``counters`` hold deterministic labels and integer
    event counts; ``duration_s`` is the span's monotonic wall time and
    belongs to the timing side of the artifact.
    """

    __slots__ = ("span_id", "parent_id", "name", "kind", "attrs",
                 "counters", "duration_s")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 kind: str = "span",
                 attrs: Optional[Dict[str, Any]] = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.counters: Dict[str, int] = {}
        self.duration_s = 0.0

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to this span's counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Span(id={self.span_id}, parent={self.parent_id}, "
                f"name={self.name!r}, kind={self.kind!r})")


class _NullSpanContext:
    """Shared, allocation-free context manager of the null tracer."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    A single module-level instance (:data:`NULL_TRACER`) is the default
    active tracer, so instrumentation sites need no ``if`` around their
    calls — and hot loops that *do* guard pay exactly one attribute
    check (``tracer.enabled``).
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, kind: str = "span", **attrs):
        return _NULL_SPAN_CONTEXT

    def record_span(self, name: str, duration_s: float, kind: str = "phase",
                    counters: Optional[Dict[str, int]] = None,
                    parent: Optional[Span] = None) -> None:
        return None

    def count(self, name: str, amount: int = 1) -> None:
        return None

    def meter_record(self, name: str, value: float) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "NullTracer()"


#: The shared disabled tracer — the default return of :func:`current_tracer`.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects one run's spans, counters and meters.

    Parameters
    ----------
    name:
        Label of the root span (``"run:fig6_csma"``, ``"task"``, ...).
    """

    enabled = True

    def __init__(self, name: str = "trace"):
        self.name = name
        root = Span(0, None, name, kind="root")
        self.spans: List[Span] = [root]
        self._stack: List[Span] = [root]
        self.counters = CounterMonitor("obs")
        self.meters: Dict[str, Monitor] = {}
        self.workers: Dict[int, Any] = {}
        self._epoch = perf_counter()

    # -- span recording -----------------------------------------------------------
    @property
    def current(self) -> Span:
        """The innermost open span (the root when none is open)."""
        return self._stack[-1]

    def _new_span(self, name: str, kind: str,
                  attrs: Optional[Dict[str, Any]],
                  parent: Optional[Span]) -> Span:
        parent_span = parent if parent is not None else self._stack[-1]
        span = Span(len(self.spans), parent_span.span_id, name, kind, attrs)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, kind: str = "span",
             **attrs: Any) -> Iterator[Span]:
        """Open a child span around a block, measuring its duration."""
        span = self._new_span(name, kind, attrs or None, None)
        self._stack.append(span)
        start = perf_counter()
        try:
            yield span
        finally:
            span.duration_s = perf_counter() - start
            self._stack.pop()

    def record_span(self, name: str, duration_s: float, kind: str = "phase",
                    counters: Optional[Dict[str, int]] = None,
                    parent: Optional[Span] = None) -> Span:
        """Attach a pre-measured span under ``parent`` (default: current).

        This is the hot-loop API: kernels accumulate elapsed time into
        plain floats and emit each phase exactly once.
        """
        span = self._new_span(name, kind, None, parent)
        span.duration_s = float(duration_s)
        if counters:
            for key in counters:
                span.counters[key] = int(counters[key])
        return span

    # -- counters and meters ------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the global counter ``name``."""
        self.counters.increment(name, amount)

    def meter_record(self, name: str, value: float) -> None:
        """Record one observation of the duration meter ``name``."""
        meter = self.meters.get(name)
        if meter is None:
            meter = self.meters[name] = Monitor(name)
        meter.record(value)

    # -- cross-process transport --------------------------------------------------
    def export(self) -> Dict[str, Any]:
        """Plain-data snapshot of this tracer (picklable, JSON-safe).

        The root span's duration is closed at export time so a worker's
        buffer carries its total task time.
        """
        root = self.spans[0]
        if root.duration_s == 0.0:
            root.duration_s = perf_counter() - self._epoch
        return {
            "spans": [{"id": span.span_id, "parent": span.parent_id,
                       "name": span.name, "kind": span.kind,
                       "attrs": dict(span.attrs),
                       "counters": dict(span.counters),
                       "duration_s": span.duration_s}
                      for span in self.spans],
            "counters": self.counters.as_dict(),
            "meters": {name: list(meter.values)
                       for name, meter in self.meters.items()},
        }

    def merge_export(self, export: Dict[str, Any], name: str,
                     worker: Any = None) -> Span:
        """Graft a worker buffer under the current span as one task span.

        The exported root becomes a span named ``name`` (kind ``"task"``,
        keeping the root's counters and duration); its children are
        renumbered in creation order, so merging buffers in task order
        yields identical span ids whatever executor produced them.
        ``worker`` (an opaque tag, e.g. a pid) is recorded on the timing
        side only.
        """
        exported = export["spans"]
        root = exported[0]
        task_span = self._new_span(name, "task", None, None)
        task_span.duration_s = float(root["duration_s"])
        for key, value in root["counters"].items():
            task_span.counters[key] = int(value)
        if worker is not None:
            self.workers[task_span.span_id] = worker
        mapping = {root["id"]: task_span}
        for entry in exported[1:]:
            parent = mapping[entry["parent"]]
            span = self._new_span(entry["name"], entry["kind"],
                                  entry["attrs"] or None, parent)
            span.duration_s = float(entry["duration_s"])
            for key, value in entry["counters"].items():
                span.counters[key] = int(value)
            mapping[entry["id"]] = span
        for key, value in export["counters"].items():
            self.counters.increment(key, value)
        for meter_name, values in export["meters"].items():
            for value in values:
                self.meter_record(meter_name, value)
        return task_span

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Tracer(name={self.name!r}, spans={len(self.spans)})"


class _TracerStack(threading.local):
    """Per-thread stack of active tracers (disabled default at the bottom).

    Thread-local, not process-global: the service worker pool runs several
    engine calls concurrently in one process, each under its own worker
    tracer — a shared stack would interleave ``activate``/``pop`` pairs
    across threads and attribute one worker's telemetry to another (or pop
    the wrong tracer entirely).  Every thread starts with its own fresh
    ``[NULL_TRACER]`` bottom, so single-threaded semantics are unchanged.
    """

    def __init__(self):
        self.stack: List[Any] = [NULL_TRACER]


_ACTIVE = _TracerStack()


def current_tracer():
    """The innermost active tracer *of this thread* (:data:`NULL_TRACER`
    when none is)."""
    return _ACTIVE.stack[-1]


@contextmanager
def activate(tracer) -> Iterator[Any]:
    """Make ``tracer`` the active tracer for the enclosed block.

    Instrumentation sites reach the tracer through
    :func:`current_tracer`, so activation is how a run's telemetry flows
    into one collector without threading it through every signature —
    including inside pool workers, where the task wrapper activates a
    fresh buffer (:mod:`repro.obs.parallel`).  Activation is scoped to the
    calling thread (see :class:`_TracerStack`).
    """
    stack = _ACTIVE.stack
    stack.append(tracer)
    try:
        yield tracer
    finally:
        stack.pop()
