"""Discrete-event simulation kernel.

This package is the simulation substrate of the reproduction.  The paper
characterises the slotted CSMA/CA contention procedure by Monte-Carlo
simulation and we additionally cross-validate the analytical energy model
against a packet-level simulation of the beacon-enabled 802.15.4 MAC.  The
offline environment does not ship ``simpy`` so a small, fully deterministic
process-based discrete-event kernel is implemented here from scratch.
It carries the event MAC kernel (one process per device and one for the
coordinator) and nothing else.

Main entry points
-----------------

``Environment``
    The event loop: schedules :class:`Event` objects on a priority queue and
    advances the simulation clock.

``Process``
    A generator-based coroutine driven by the environment.  A process yields
    ``Timeout`` events and is resumed when the yielded event fires.

``Timeout``
    A pure-delay event.

``RandomStreams``
    Named, reproducible ``numpy`` random generators derived from a single
    master seed, so every stochastic component of the simulator can be
    re-seeded independently.

``Monitor`` / ``CounterMonitor``
    Lightweight statistics collectors used by the MAC simulation, the result
    cache and the tracer.

The names resolve on first access: the cache and tracer import
:mod:`repro.sim.monitor` without loading the event kernel or numpy.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.sim.engine": ("Environment", "Event", "Process",
                         "SimulationError", "Timeout"),
    "repro.sim.monitor": ("Monitor", "CounterMonitor"),
    "repro.sim.random": ("RandomStreams", "spawn_seeds"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
