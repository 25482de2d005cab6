"""Unit tests of the radio state machine definitions."""

import pytest

from repro.radio.states import (
    ALLOWED_TRANSITIONS,
    IllegalTransitionError,
    RadioState,
    is_transition_allowed,
    transition_path,
)


class TestRadioState:
    def test_four_states(self):
        assert len(list(RadioState)) == 4


class TestTransitions:
    def test_self_transition_always_allowed(self):
        for state in RadioState:
            assert is_transition_allowed(state, state)

    def test_idle_is_the_hub(self):
        assert is_transition_allowed(RadioState.IDLE, RadioState.RX)
        assert is_transition_allowed(RadioState.IDLE, RadioState.TX)
        assert is_transition_allowed(RadioState.IDLE, RadioState.SHUTDOWN)
        assert is_transition_allowed(RadioState.SHUTDOWN, RadioState.IDLE)

    def test_direct_active_transitions_not_allowed_by_policy(self):
        assert not is_transition_allowed(RadioState.RX, RadioState.TX)
        assert not is_transition_allowed(RadioState.TX, RadioState.RX)
        assert not is_transition_allowed(RadioState.SHUTDOWN, RadioState.RX)
        assert not is_transition_allowed(RadioState.SHUTDOWN, RadioState.TX)

    def test_transition_path_direct(self):
        path = transition_path(RadioState.IDLE, RadioState.RX)
        assert path == ((RadioState.IDLE, RadioState.RX),)

    def test_transition_path_same_state_is_empty(self):
        assert transition_path(RadioState.RX, RadioState.RX) == ()

    def test_transition_path_through_idle(self):
        path = transition_path(RadioState.RX, RadioState.TX)
        assert path == ((RadioState.RX, RadioState.IDLE),
                        (RadioState.IDLE, RadioState.TX))

    def test_shutdown_to_active_goes_through_idle(self):
        path = transition_path(RadioState.SHUTDOWN, RadioState.RX)
        assert len(path) == 2
        assert path[0] == (RadioState.SHUTDOWN, RadioState.IDLE)

    def test_every_pair_is_reachable(self):
        for source in RadioState:
            for target in RadioState:
                path = transition_path(source, target)
                for hop in path:
                    assert is_transition_allowed(*hop)

    def test_allowed_transitions_are_symmetric_via_idle(self):
        # Every allowed transition involves IDLE as source or target.
        for source, target in ALLOWED_TRANSITIONS:
            assert RadioState.IDLE in (source, target)
