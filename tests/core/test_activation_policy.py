"""Unit tests of the activation policies."""

import pytest

from repro.core.activation_policy import ActivationPolicy, PolicyVariant
from repro.radio.power_profile import CC2420_PROFILE
from repro.radio.states import RadioState


class TestPaperPolicy:
    def test_defaults(self):
        policy = ActivationPolicy.paper()
        assert policy.variant is PolicyVariant.PAPER
        assert policy.wake_lead_time_s == pytest.approx(1e-3)
        assert policy.idle_between_ccas
        assert policy.shutdown_between_superframes

    def test_states(self):
        policy = ActivationPolicy.paper()
        assert policy.pre_beacon_state is RadioState.IDLE
        assert policy.inactive_state is RadioState.SHUTDOWN
        assert policy.contention_wait_state is RadioState.IDLE

    def test_wakeup_energy(self):
        policy = ActivationPolicy.paper()
        assert policy.wakeup_energy_j() == pytest.approx(691e-12)


class TestAblationPolicies:
    def test_always_idle(self):
        policy = ActivationPolicy.always_idle()
        assert policy.inactive_state is RadioState.IDLE
        assert not policy.wakeup_is_required
        assert policy.wakeup_energy_j() == 0.0
        assert policy.wake_lead_time_s == 0.0

    def test_rx_until_beacon(self):
        policy = ActivationPolicy.rx_until_beacon()
        assert policy.pre_beacon_state is RadioState.RX
        assert policy.inactive_state is RadioState.SHUTDOWN

    def test_negative_wake_lead_rejected(self):
        with pytest.raises(ValueError):
            ActivationPolicy(wake_lead_time_s=-1.0)

    def test_custom_profile_carried(self):
        scaled = CC2420_PROFILE.with_scaled_transitions(0.5)
        policy = ActivationPolicy.paper(profile=scaled)
        assert policy.wakeup_energy_j() == pytest.approx(691e-12 / 2)
