"""``repro.obs`` — structured tracing and run telemetry.

The observability seam of the stack: a hierarchical span :class:`Tracer`
(run -> experiment -> channel lane -> kernel phase) plus named counters
and duration meters built on the :mod:`repro.sim.monitor` collectors.
Instrumented layers (the engine, the executors, the cache, the sweep
driver and both MAC kernels) consult the *active* tracer through
:func:`current_tracer`; when none is active they see the module-level
:data:`NULL_TRACER`, whose every operation is a no-op — hot loops pay a
single ``tracer.enabled`` attribute check and allocate nothing.

Layering: ``repro.obs`` imports nothing above :mod:`repro.sim` (asserted
in CI).  The runner, sweep, bench and MAC layers depend on it — never the
reverse.

Determinism contract
--------------------
Tracing must not perturb a run: nothing observable feeds cache keys or
RNG streams, and a traced run's :class:`SimulationSummary` equals the
untraced one for the same seed (pinned for both backends).  The
trace artifact (:func:`write_trace`) is schema-versioned JSON whose key
order is stable and whose *every* nondeterministic quantity — wall-clock
timestamp, monotonic durations, meter statistics, worker ids — lives in
the single top-level ``"timing"`` field, so comparing traces minus that
one field is exact (serial vs ``--jobs N``, fresh vs committed golden).
"""

from repro.obs.parallel import TracedExecutor
from repro.obs.report import phase_durations, render_report
from repro.obs.trace import (TRACE_KIND, TRACE_SCHEMA_VERSION,
                             deterministic_view, read_trace, validate_trace,
                             write_trace)
from repro.obs.tracer import (NULL_TRACER, NullTracer, Span, Tracer,
                              activate, current_tracer)

__all__ = [
    "Tracer",
    "Span",
    "NullTracer",
    "NULL_TRACER",
    "activate",
    "current_tracer",
    "TracedExecutor",
    "TRACE_KIND",
    "TRACE_SCHEMA_VERSION",
    "write_trace",
    "read_trace",
    "validate_trace",
    "deterministic_view",
    "render_report",
    "phase_durations",
]
