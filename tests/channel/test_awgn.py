"""Unit tests of the AWGN link abstraction (equations 1, 2, 10 combined)."""

import numpy as np
import pytest

from repro.channel.awgn import AwgnLink
from repro.phy.error_model import EmpiricalBerModel


class TestAwgnLink:
    def test_received_power_is_tx_minus_path_loss(self):
        link = AwgnLink(path_loss_db=70.0)
        assert link.received_power_dbm(0.0) == pytest.approx(-70.0)
        assert link.received_power_dbm(-10.0) == pytest.approx(-80.0)

    def test_in_range_check(self):
        link = AwgnLink(path_loss_db=90.0, sensitivity_dbm=-94.0)
        assert link.is_in_range(0.0)
        assert not link.is_in_range(-10.0)

    def test_ber_below_sensitivity_is_half(self):
        link = AwgnLink(path_loss_db=100.0, sensitivity_dbm=-94.0)
        assert link.bit_error_probability(0.0) == 0.5

    def test_ber_improves_with_tx_power(self):
        link = AwgnLink(path_loss_db=88.0)
        assert link.bit_error_probability(0.0) < link.bit_error_probability(-5.0)

    def test_packet_error_below_sensitivity_is_one(self):
        link = AwgnLink(path_loss_db=120.0)
        assert link.packet_error_probability(0.0, 133) == 1.0

    def test_packet_error_reasonable_at_moderate_loss(self):
        link = AwgnLink(path_loss_db=70.0)
        pe = link.packet_error_probability(0.0, 133)
        assert 0.0 <= pe < 1e-6

    def test_packet_error_is_partial_on_a_marginal_link(self):
        link = AwgnLink(path_loss_db=92.0, error_model=EmpiricalBerModel())
        assert 0.01 < link.packet_error_probability(0.0, 133) < 1.0

    def test_packet_corruption_draws_follow_probability(self):
        link = AwgnLink(path_loss_db=90.0)
        rng = np.random.default_rng(0)
        probability = link.packet_error_probability(0.0, 133)
        draws = [link.packet_is_corrupted(0.0, 133, rng) for _ in range(3000)]
        assert np.mean(draws) == pytest.approx(probability, abs=0.03)
