"""Oracle for the Monte-Carlo window loop.

:meth:`ContentionSimulator.simulate_window` runs the slotted CSMA/CA rules
inlined over per-node lists.  The reference below drives one
:class:`SlottedCsmaCa` machine per node instead (the state machine the MAC
event kernel runs) against the same channel model.  Both must give equal
attempts and leave the random generator in the same state, which also pins
the claim that one array draw of the first backoffs consumes the stream as
the machines' per-node scalar draws do.
"""

import heapq
from dataclasses import dataclass
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contention.monte_carlo import (
    ContentionSimulator,
    NodeAttempt,
    WindowResult,
)
from repro.mac.csma import CsmaAction, CsmaParameters, SlottedCsmaCa

_EVENT_TX_START = 0
_EVENT_CCA = 1


@dataclass
class _ActiveTransmission:
    """Channel occupancy bookkeeping entry."""

    start_slot: int
    end_slot: int
    attempt: NodeAttempt


def reference_window(simulator: ContentionSimulator, packet_bytes: int,
                     window_slots: int) -> WindowResult:
    """One window with a :class:`SlottedCsmaCa` machine per node."""
    occupancy = simulator.occupancy_slots(packet_bytes)
    result = WindowResult(window_slots=window_slots,
                          packet_slots=simulator.packet_slots(packet_bytes))
    n = simulator.num_nodes
    arrivals = simulator.rng.integers(0, window_slots, size=n)

    attempts = [NodeAttempt(node_id=i, arrival_slot=int(arrivals[i]))
                for i in range(n)]
    machines = [SlottedCsmaCa(simulator.csma_params, rng=simulator.rng)
                for _ in range(n)]

    # Event heap entries: (slot, event_type, sequence, node_id)
    heap: List[tuple] = []
    sequence = 0
    for node_id, attempt in enumerate(attempts):
        instruction = machines[node_id].begin()
        assert instruction.action is CsmaAction.WAIT_BACKOFF
        heapq.heappush(heap, (attempt.arrival_slot + instruction.slots,
                              _EVENT_CCA, sequence, node_id))
        sequence += 1

    active: List[_ActiveTransmission] = []

    def channel_busy(slot: int) -> bool:
        nonlocal active
        active = [t for t in active if t.end_slot >= slot]
        return any(t.start_slot <= slot <= t.end_slot for t in active)

    while heap:
        slot, event_type, _seq, node_id = heapq.heappop(heap)
        attempt = attempts[node_id]
        machine = machines[node_id]

        if event_type == _EVENT_TX_START:
            overlapping = [t for t in active if t.end_slot >= slot]
            if overlapping:
                attempt.collided = True
                for other in overlapping:
                    other.attempt.collided = True
            active.append(_ActiveTransmission(
                start_slot=slot, end_slot=slot + occupancy - 1,
                attempt=attempt))
            attempt.transmit_slot = slot
            attempt.finish_slot = slot
            attempt.access_granted = True
            continue

        machine.backoff_elapsed()
        instruction = machine.cca_result(channel_busy(slot))
        attempt.cca_count += 1
        if instruction.action is CsmaAction.PERFORM_CCA:
            heapq.heappush(heap, (slot + 1, _EVENT_CCA, sequence, node_id))
        elif instruction.action is CsmaAction.WAIT_BACKOFF:
            heapq.heappush(heap, (slot + 1 + instruction.slots, _EVENT_CCA,
                                  sequence, node_id))
        elif instruction.action is CsmaAction.TRANSMIT:
            heapq.heappush(heap, (slot + 1, _EVENT_TX_START, sequence,
                                  node_id))
        else:
            assert instruction.action is CsmaAction.FAILURE
            attempt.finish_slot = slot
        sequence += 1

    for attempt, machine in zip(attempts, machines):
        assert machine.result().cca_count == attempt.cca_count
        attempt.backoff_slots = machine.result().backoff_slots_waited
    result.attempts = attempts
    return result


CSMA_PARAMETER_SETS = {
    "paper": CsmaParameters(),
    "standard_4_backoffs": CsmaParameters(max_csma_backoffs=4),
    "ble": CsmaParameters(battery_life_extension=True),
    "min_be_0": CsmaParameters(min_be=0),
    "max_be_0": CsmaParameters(min_be=0, max_be=0),
    "ble_cap_0": CsmaParameters(battery_life_extension=True,
                                battery_life_extension_max_be=0),
    "cw_1": CsmaParameters(contention_window=1),
    "cw_3": CsmaParameters(contention_window=3),
}


def _simulator_pair(**kwargs):
    return ContentionSimulator(**kwargs), ContentionSimulator(**kwargs)


def assert_windows_equal(simulator, reference, packet_bytes, window_slots):
    inlined = simulator.simulate_window(packet_bytes, window_slots)
    expected = reference_window(reference, packet_bytes, window_slots)
    assert inlined == expected
    assert simulator.rng.bit_generator.state == \
        reference.rng.bit_generator.state


@pytest.mark.parametrize("num_nodes", [1, 2, 17, 100])
@pytest.mark.parametrize("csma", sorted(CSMA_PARAMETER_SETS))
def test_inlined_window_matches_state_machine_reference(csma, num_nodes):
    simulator, reference = _simulator_pair(
        num_nodes=num_nodes, csma_params=CSMA_PARAMETER_SETS[csma],
        seed=num_nodes)
    for load, packet_bytes in ((0.05, 133), (0.42, 63), (0.9, 20)):
        window = simulator.window_slots_for_load(load, packet_bytes)
        # A one-slot window starts every node on the same slot.
        for window_slots in (1, 2, window):
            assert_windows_equal(simulator, reference, packet_bytes,
                                 window_slots)


@settings(max_examples=60, deadline=None)
@given(num_nodes=st.integers(1, 30),
       window_slots=st.integers(1, 1500),
       packet_bytes=st.integers(9, 133),
       csma=st.sampled_from(sorted(CSMA_PARAMETER_SETS)),
       seed=st.integers(0, 2**32 - 1),
       windows=st.integers(1, 3))
def test_inlined_window_property(num_nodes, window_slots, packet_bytes, csma,
                                 seed, windows):
    simulator, reference = _simulator_pair(
        num_nodes=num_nodes, csma_params=CSMA_PARAMETER_SETS[csma], seed=seed)
    for _ in range(windows):
        assert_windows_equal(simulator, reference, packet_bytes, window_slots)


@pytest.mark.parametrize("be", [0, 1, 2, 3, 5, 8])
@pytest.mark.parametrize("n", [1, 2, 3, 100])
def test_array_draw_consumes_the_stream_like_scalar_draws(be, n):
    # Odd-length draws and a preceding draw leave a half-used 64-bit word
    # in the bit generator; the array draw must consume it identically.
    array_rng, scalar_rng = np.random.default_rng(4), np.random.default_rng(4)
    for rng in (array_rng, scalar_rng):
        rng.integers(0, 3001)
    drawn = array_rng.integers(0, 2 ** be, size=n).tolist()
    assert drawn == [int(scalar_rng.integers(0, 2 ** be)) for _ in range(n)]
    assert array_rng.bit_generator.state == scalar_rng.bit_generator.state
    assert array_rng.integers(0, 2 ** 16) == scalar_rng.integers(0, 2 ** 16)


def test_characterize_matches_reference_windows():
    # characterize reduces the loop's columns without building attempts;
    # the statistics must equal those of the reference windows.
    from repro.contention.monte_carlo import window_statistics
    from repro.contention.statistics import merge_statistics

    simulator, reference = _simulator_pair(num_nodes=40, seed=21)
    load, packet_bytes = 0.42, 63
    window_slots = reference.window_slots_for_load(load, packet_bytes)
    slot_s = reference.constants.unit_backoff_period_s
    expected = merge_statistics([
        window_statistics(reference_window(reference, packet_bytes,
                                           window_slots),
                          load=load, packet_bytes=packet_bytes, slot_s=slot_s)
        for _ in range(4)])
    assert simulator.characterize(load, packet_bytes, num_windows=4) == expected
