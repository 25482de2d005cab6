"""The tracked benchmark workloads behind ``python -m repro bench``.

Two workloads cover the two levels the kernels are consumed at, each timing
the discrete-event kernel against the batched lockstep kernel and
reporting ``batched_vs_event``:

``vectorized_channel``
    One dense channel (the paper's 100-node population) — the
    single-channel speedup the benchmark suite has asserted since the fast
    path landed.
``case_study_full``
    The full Section 5 fan-out (16 channels x 100 nodes): sixteen event
    kernel runs against one batched call spanning every channel.

Each case returns a schema-ordered record (:mod:`repro.bench.trajectory`);
``quick`` mode shrinks the population and horizon to CI-smoke size while
keeping every speedup ratio meaningful.  The slow event kernel runs once
per full-mode case study record (its median moves little and dominates
wall time); the batched kernel always gets the full repeat count.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.bench.trajectory import build_record, timed_median

#: Master seed of every benchmark run — timings must not wander with the
#: workload's random draws.
BENCH_SEED = 2005

#: The two kernels every case times, slow reference first.
KERNELS = ("event", "batched")


def _phase_breakdown(fn: Callable[[], Any]) -> Dict[str, float]:
    """Per-phase seconds of one instrumented run of ``fn``.

    Runs once under a fresh :class:`repro.obs.Tracer` (timings are
    diagnostic, not gated, so a single sample is enough).
    """
    from repro.obs import Tracer, activate, phase_durations

    tracer = Tracer(name="bench")
    with activate(tracer):
        fn()
    return phase_durations(tracer)


def _time_kernels(run: Callable[[str], Any], repeats: int,
                  event_repeats: int, phases: bool):
    """``(timings, speedup, phases)`` of ``run(backend)`` on both kernels."""
    timings: Dict[str, Dict[str, Any]] = {}
    for kernel in KERNELS:
        count = event_repeats if kernel == "event" else repeats
        median_s, runs = timed_median(lambda: run(kernel), count)
        timings[kernel] = {"median_s": median_s, "runs": runs}
    speedup = {"batched_vs_event": (timings["event"]["median_s"]
                                    / timings["batched"]["median_s"])}
    breakdown = None
    if phases:
        breakdown = {kernel: _phase_breakdown(lambda: run(kernel))
                     for kernel in KERNELS}
    return timings, speedup, breakdown


def bench_vectorized_channel(quick: bool = False, repeats: int = 3,
                             phases: bool = False) -> Dict[str, Any]:
    """Single dense channel: event kernel vs the batched kernel."""
    from repro.network.scenario import DenseNetworkScenario

    max_nodes = 20 if quick else None
    superframes = 4 if quick else 10
    scenario = DenseNetworkScenario(seed=1)
    channel = scenario.channel_scenario(11, max_nodes=max_nodes,
                                        seed=BENCH_SEED)

    def run(backend: str):
        return channel.run(superframes=superframes, backend=backend)

    timings, speedup, breakdown = _time_kernels(run, repeats, repeats,
                                                phases)
    return build_record(
        experiment="vectorized_channel",
        mode="quick" if quick else "full",
        params={"nodes": len(channel.nodes), "superframes": superframes,
                "seed": BENCH_SEED},
        timings_s=timings, speedup=speedup, phases=breakdown)


def bench_case_study_full(quick: bool = False, repeats: int = 3,
                          phases: bool = False) -> Dict[str, Any]:
    """Full Section 5 fan-out: batched vs event kernels."""
    from repro.experiments.case_study_full import run_full_case_study

    superframes = 5 if quick else 50
    cap = 25 if quick else None

    def run(backend: str):
        return run_full_case_study(superframes=superframes, backend=backend,
                                   nodes_per_channel_cap=cap,
                                   seed=BENCH_SEED)

    # The event kernel dominates a full-mode record's wall time; one run
    # keeps regeneration cheap without moving the ratio materially.
    timings, speedup, breakdown = _time_kernels(
        run, repeats, repeats if quick else 1, phases)
    return build_record(
        experiment="case_study_full",
        mode="quick" if quick else "full",
        params={"total_nodes": 1600, "superframes": superframes,
                "nodes_per_channel_cap": cap, "seed": BENCH_SEED},
        timings_s=timings, speedup=speedup, phases=breakdown)


#: Registry of benchmarkable experiments, in trajectory order.
BENCH_CASES: Dict[str, Callable[..., Dict[str, Any]]] = {
    "vectorized_channel": bench_vectorized_channel,
    "case_study_full": bench_case_study_full,
}


def run_bench_case(name: str, quick: bool = False, repeats: int = 3,
                   phases: bool = False) -> Dict[str, Any]:
    """Run one registered case and return its record."""
    try:
        case = BENCH_CASES[name]
    except KeyError:
        raise ValueError(
            f"Unknown bench case {name!r}; "
            f"choose from {', '.join(sorted(BENCH_CASES))}") from None
    return case(quick=quick, repeats=repeats, phases=phases)
