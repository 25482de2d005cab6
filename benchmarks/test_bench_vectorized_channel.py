"""Bench — batched lockstep kernel vs the event-driven kernel.

Acceptance record for the fast path: one full 100-node case-study channel
simulated for >= 50 superframes must run at least 10x faster on the batched
backend (the channel as a single lane of ``repro.mac.vectorized``) than on
the discrete-event kernel, with identical delivery / failure / attempt
counts for the same seed.  ``REPRO_BENCH_QUICK``
shrinks the horizon for CI smoke runs (the speedup assertion still holds —
the ratio is roughly horizon-independent).
"""

import os
import time

from repro.network.scenario import DenseNetworkScenario

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SUPERFRAMES = 10 if QUICK else 50
NODES = 100
SPEEDUP_FLOOR = 10.0


def test_bench_vectorized_vs_event_kernel(benchmark):
    scenario = DenseNetworkScenario(seed=1)
    channel = scenario.channel_scenario(11, seed=3)
    assert len(channel.nodes) == NODES

    start = time.perf_counter()
    event = channel.run(superframes=SUPERFRAMES, backend="event")
    event_s = time.perf_counter() - start

    start = time.perf_counter()
    fast = channel.run(superframes=SUPERFRAMES, backend="batched")
    fast_s = time.perf_counter() - start

    # The benchmarked figure tracked across PRs is the fast path itself.
    timed = benchmark.pedantic(
        lambda: channel.run(superframes=SUPERFRAMES, backend="batched"),
        rounds=3, iterations=1)

    speedup = event_s / max(fast_s, 1e-9)
    print()
    print(f"channel: {NODES} nodes x {SUPERFRAMES} superframes")
    print(f"event kernel:     {event_s:8.3f} s")
    print(f"batched:          {fast_s:8.3f} s  (speedup x{speedup:.1f})")

    assert timed.packets_attempted == event.packets_attempted
    assert timed.packets_delivered == event.packets_delivered
    assert timed.channel_access_failures == event.channel_access_failures
    assert timed.collisions == event.collisions
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched backend only x{speedup:.1f} faster than the event "
        f"kernel (acceptance floor x{SPEEDUP_FLOOR:.0f})")


def test_bench_full_network_fanout(benchmark):
    """Wall-clock of the whole 16-channel case study on the fast path."""
    from repro.experiments.case_study_full import run_full_case_study

    superframes = 5 if QUICK else 50

    def run():
        return run_full_case_study(superframes=superframes, seed=2005)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    aggregate = result.aggregate
    print()
    print(f"network: {aggregate['nodes']} nodes over "
          f"{aggregate['channels']} channels, {superframes} superframes")
    print(f"failure probability: {aggregate['failure_probability']:.3f}")
    print(f"average power:       {aggregate['mean_power_uw']:.1f} uW")
    assert aggregate["nodes"] == 1600
    assert 0.0 < aggregate["failure_probability"] < 1.0
