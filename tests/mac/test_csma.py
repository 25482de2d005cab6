"""Unit and property tests of the slotted CSMA/CA state machine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.constants import MAC_2450MHZ
from repro.mac.csma import (
    CsmaAction,
    CsmaOutcome,
    CsmaParameters,
    SlottedCsmaCa,
)


def drive(machine: SlottedCsmaCa, busy_pattern):
    """Drive a state machine feeding CCA outcomes from ``busy_pattern``.

    Returns the list of actions taken.  ``busy_pattern`` is consumed one
    entry per CCA; a ``StopIteration`` means the test did not expect that
    many CCAs.
    """
    pattern = iter(busy_pattern)
    actions = []
    instruction = machine.begin()
    while True:
        actions.append(instruction.action)
        if instruction.action is CsmaAction.WAIT_BACKOFF:
            instruction = machine.backoff_elapsed()
        elif instruction.action is CsmaAction.PERFORM_CCA:
            instruction = machine.cca_result(next(pattern))
        else:
            return actions


class TestCsmaParameters:
    def test_defaults_follow_paper_convention(self):
        params = CsmaParameters()
        assert params.min_be == 3
        assert params.max_be == 5
        assert params.max_csma_backoffs == 2
        assert params.contention_window == 2

    def test_from_mac_constants_standard_convention(self):
        params = CsmaParameters.from_mac_constants(MAC_2450MHZ,
                                                   paper_convention=False)
        assert params.max_csma_backoffs == 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CsmaParameters(min_be=4, max_be=3)
        with pytest.raises(ValueError):
            CsmaParameters(contention_window=0)
        with pytest.raises(ValueError):
            CsmaParameters(max_csma_backoffs=-1)

    def test_battery_life_extension_caps_exponent(self):
        params = CsmaParameters(battery_life_extension=True)
        assert params.initial_backoff_exponent() == 2
        assert params.clamp_backoff_exponent(5) == 2

    def test_clamp_without_ble(self):
        params = CsmaParameters()
        assert params.clamp_backoff_exponent(7) == 5
        assert params.clamp_backoff_exponent(4) == 4

    def test_initial_backoff_exponent(self):
        assert CsmaParameters().initial_backoff_exponent() == 3
        assert CsmaParameters(
            battery_life_extension=True).initial_backoff_exponent() == 2


class TestBatteryLifeExtensionEdgeCases:
    def test_min_be_above_ble_cap_uses_the_cap(self):
        """min_be > battery_life_extension_max_be: the BLE cap wins for the
        initial exponent and every later clamp."""
        params = CsmaParameters(min_be=4, battery_life_extension=True,
                                battery_life_extension_max_be=2)
        assert params.initial_backoff_exponent() == 2
        assert params.clamp_backoff_exponent(params.initial_backoff_exponent() + 1) == 2
        machine = SlottedCsmaCa(params, rng=np.random.default_rng(0))
        drive(machine, busy_pattern=[True, True, True])
        # Every drawn delay came from a window capped at 2^2 slots.
        assert machine.result().backoff_slots_waited <= 3 * (2 ** 2 - 1)

    def test_min_be_below_ble_cap_keeps_min_be(self):
        params = CsmaParameters(min_be=1, battery_life_extension=True,
                                battery_life_extension_max_be=2)
        assert params.initial_backoff_exponent() == 1
        assert params.clamp_backoff_exponent(4) == 2

    def test_ble_cap_of_zero_forces_immediate_cca(self):
        params = CsmaParameters(battery_life_extension=True,
                                battery_life_extension_max_be=0)
        assert params.initial_backoff_exponent() == 0
        machine = SlottedCsmaCa(params, rng=np.random.default_rng(1))
        instruction = machine.begin()
        assert instruction.action is CsmaAction.WAIT_BACKOFF
        assert instruction.slots == 0

    def test_ble_disabled_ignores_the_cap_attribute(self):
        params = CsmaParameters(battery_life_extension=False,
                                battery_life_extension_max_be=0)
        assert params.initial_backoff_exponent() == 3
        assert params.clamp_backoff_exponent(9) == 5

    def test_negative_ble_cap_raises_dedicated_error(self):
        from repro.mac.csma import BatteryLifeExtensionError
        with pytest.raises(BatteryLifeExtensionError):
            CsmaParameters(battery_life_extension=True,
                           battery_life_extension_max_be=-1)
        # The error is a ValueError, so generic validation handling catches it.
        assert issubclass(BatteryLifeExtensionError, ValueError)

    def test_negative_ble_cap_allowed_when_ble_disabled(self):
        params = CsmaParameters(battery_life_extension=False,
                                battery_life_extension_max_be=-1)
        assert params.initial_backoff_exponent() == 3

    def test_post_init_validation_matrix(self):
        with pytest.raises(ValueError):
            CsmaParameters(min_be=-1)
        with pytest.raises(ValueError):
            CsmaParameters(min_be=3, max_be=2)
        with pytest.raises(ValueError):
            CsmaParameters(max_csma_backoffs=-1)
        with pytest.raises(ValueError):
            CsmaParameters(contention_window=0)


class TestSlottedCsmaCa:
    def test_clear_channel_transmits_after_two_ccas(self):
        machine = SlottedCsmaCa(rng=np.random.default_rng(0))
        actions = drive(machine, busy_pattern=[False, False])
        assert actions[-1] is CsmaAction.TRANSMIT
        result = machine.result()
        assert result.outcome is CsmaOutcome.SUCCESS
        assert result.cca_count == 2
        assert result.backoff_attempts == 1

    def test_contention_window_resets_after_busy(self):
        machine = SlottedCsmaCa(rng=np.random.default_rng(1))
        # First CCA clear, second busy -> CW resets, new backoff, then two
        # clear CCAs are needed again.
        actions = drive(machine, busy_pattern=[False, True, False, False])
        assert actions[-1] is CsmaAction.TRANSMIT
        result = machine.result()
        assert result.cca_count == 4
        assert result.backoff_attempts == 2

    def test_failure_after_max_backoffs(self):
        params = CsmaParameters(max_csma_backoffs=2)
        machine = SlottedCsmaCa(params, rng=np.random.default_rng(2))
        actions = drive(machine, busy_pattern=[True, True, True])
        assert actions[-1] is CsmaAction.FAILURE
        result = machine.result()
        assert result.outcome is CsmaOutcome.CHANNEL_ACCESS_FAILURE
        assert result.cca_count == 3
        assert result.backoff_attempts == 3

    def test_backoff_delays_within_window(self):
        params = CsmaParameters()
        rng = np.random.default_rng(3)
        for _ in range(50):
            machine = SlottedCsmaCa(params, rng=rng)
            instruction = machine.begin()
            assert instruction.action is CsmaAction.WAIT_BACKOFF
            assert 0 <= instruction.slots <= 7      # 2^3 - 1

    def test_backoff_window_grows_when_busy(self):
        params = CsmaParameters()
        rng = np.random.default_rng(4)
        maxima = [0, 0, 0]
        for _ in range(300):
            machine = SlottedCsmaCa(params, rng=rng)
            instruction = machine.begin()
            maxima[0] = max(maxima[0], instruction.slots)
            machine.backoff_elapsed()
            instruction = machine.cca_result(True)
            maxima[1] = max(maxima[1], instruction.slots)
            machine.backoff_elapsed()
            instruction = machine.cca_result(True)
            maxima[2] = max(maxima[2], instruction.slots)
        assert maxima[0] <= 7
        assert maxima[1] <= 15 and maxima[1] > 7
        assert maxima[2] <= 31 and maxima[2] > 15

    def test_battery_life_extension_shortens_backoff(self):
        params = CsmaParameters(battery_life_extension=True)
        rng = np.random.default_rng(5)
        for _ in range(100):
            machine = SlottedCsmaCa(params, rng=rng)
            assert machine.begin().slots <= 3     # 2^2 - 1

    def test_result_before_finish_raises(self):
        machine = SlottedCsmaCa(rng=np.random.default_rng(6))
        machine.begin()
        with pytest.raises(RuntimeError):
            machine.result()

    def test_driving_before_begin_raises(self):
        machine = SlottedCsmaCa(rng=np.random.default_rng(7))
        with pytest.raises(RuntimeError):
            machine.backoff_elapsed()
        with pytest.raises(RuntimeError):
            machine.cca_result(False)

    def test_begin_resets_state(self):
        machine = SlottedCsmaCa(rng=np.random.default_rng(8))
        drive(machine, busy_pattern=[False, False])
        machine.begin()
        assert not machine.finished

    def test_duration_includes_backoffs_and_ccas(self):
        machine = SlottedCsmaCa(rng=np.random.default_rng(9))
        drive(machine, busy_pattern=[False, False])
        result = machine.result()
        assert result.duration_slots == result.backoff_slots_waited + result.cca_count

    @settings(max_examples=60, deadline=None)
    @given(busy=st.lists(st.booleans(), min_size=10, max_size=10),
           seed=st.integers(min_value=0, max_value=1000))
    def test_always_terminates_with_valid_statistics(self, busy, seed):
        """Whatever the channel does, the machine terminates within the
        allowed number of CCAs and reports consistent statistics."""
        params = CsmaParameters(max_csma_backoffs=2, contention_window=2)
        machine = SlottedCsmaCa(params, rng=np.random.default_rng(seed))
        actions = drive(machine, busy_pattern=iter(busy + [False] * 10))
        result = machine.result()
        assert actions[-1] in (CsmaAction.TRANSMIT, CsmaAction.FAILURE)
        # At most (max backoffs + 1) stages, each with at most CW CCAs.
        assert result.cca_count <= (params.max_csma_backoffs + 1) * 2
        assert result.backoff_attempts <= params.max_csma_backoffs + 1
        assert result.duration_slots >= result.cca_count
        if result.outcome is CsmaOutcome.SUCCESS:
            assert actions[-1] is CsmaAction.TRANSMIT
        else:
            assert actions[-1] is CsmaAction.FAILURE
