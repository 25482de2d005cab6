"""Unit and property tests of the reliability equations (7)-(10), (13)-(14)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reliability import (
    delivery_delay_s,
    energy_per_data_bit_j,
    transaction_failure_probability,
    transmission_attempt_distribution,
    transmission_failure_probability,
)


class TestTransmissionFailureProbability:
    """Equation (9)."""

    def test_no_failure_sources(self):
        assert transmission_failure_probability(0.0, 0.0) == 0.0

    def test_combination(self):
        assert transmission_failure_probability(0.1, 0.2) == pytest.approx(
            1.0 - 0.9 * 0.8)

    def test_certain_failure(self):
        assert transmission_failure_probability(1.0, 0.0) == 1.0
        assert transmission_failure_probability(0.0, 1.0) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            transmission_failure_probability(-0.1, 0.0)
        with pytest.raises(ValueError):
            transmission_failure_probability(0.0, 1.1)

    @settings(max_examples=50, deadline=None)
    @given(col=st.floats(min_value=0, max_value=1),
           err=st.floats(min_value=0, max_value=1))
    def test_result_is_probability_and_exceeds_each_source(self, col, err):
        value = transmission_failure_probability(col, err)
        assert 0.0 <= value <= 1.0
        assert value >= max(col, err) - 1e-12


class TestAttemptDistribution:
    """Equations (7) and (8)."""

    def test_reliable_link_transmits_once(self):
        distribution = transmission_attempt_distribution(0.0, 5)
        assert distribution.probabilities[0] == 1.0
        assert distribution.exceed_probability == 0.0
        assert distribution.expected_transmissions == pytest.approx(1.0)
        assert distribution.success_probability == 1.0

    def test_geometric_form(self):
        distribution = transmission_attempt_distribution(0.3, 5)
        for index, probability in enumerate(distribution.probabilities, start=1):
            assert probability == pytest.approx(0.3 ** (index - 1) * 0.7)
        assert distribution.exceed_probability == pytest.approx(0.3 ** 5)

    def test_distribution_sums_to_one(self):
        distribution = transmission_attempt_distribution(0.4, 5)
        total = sum(distribution.probabilities) + distribution.exceed_probability
        assert total == pytest.approx(1.0)

    def test_certain_failure_always_uses_n_max(self):
        distribution = transmission_attempt_distribution(1.0, 5)
        assert distribution.exceed_probability == 1.0
        assert distribution.expected_transmissions == pytest.approx(5.0)

    def test_expected_transmissions_monotone_in_failure(self):
        values = [transmission_attempt_distribution(p, 5).expected_transmissions
                  for p in (0.0, 0.2, 0.5, 0.8, 1.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            transmission_attempt_distribution(1.5, 5)
        with pytest.raises(ValueError):
            transmission_attempt_distribution(0.5, 0)

    @settings(max_examples=50, deadline=None)
    @given(p=st.floats(min_value=0, max_value=1),
           n=st.integers(min_value=1, max_value=10))
    def test_properties(self, p, n):
        distribution = transmission_attempt_distribution(p, n)
        total = sum(distribution.probabilities) + distribution.exceed_probability
        assert total == pytest.approx(1.0)
        assert 1.0 - 1e-9 <= distribution.expected_transmissions <= n + 1e-9


class TestTransactionFailureAndDelay:
    """Equation (13)."""

    def test_transaction_failure_combination(self):
        assert transaction_failure_probability(0.1, 0.2) == pytest.approx(
            1.0 - 0.9 * 0.8)

    def test_paper_case_study_order_of_magnitude(self):
        # Pr_cf ~ 0.15 and negligible retry exhaustion gives ~16 %.
        assert transaction_failure_probability(0.15, 0.005) == pytest.approx(
            0.154, abs=0.01)

    def test_delay_with_no_failures_is_one_superframe(self):
        assert delivery_delay_s(0.98304, 0.0) == pytest.approx(0.98304)

    def test_delay_grows_with_failure(self):
        assert delivery_delay_s(1.0, 0.5) == pytest.approx(2.0)
        assert delivery_delay_s(1.0, 0.9) == pytest.approx(10.0)

    def test_certain_failure_gives_infinite_delay(self):
        assert math.isinf(delivery_delay_s(1.0, 1.0))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            delivery_delay_s(0.0, 0.1)
        with pytest.raises(ValueError):
            delivery_delay_s(1.0, -0.1)
        with pytest.raises(ValueError):
            transaction_failure_probability(2.0, 0.0)


class TestEnergyPerBit:
    """Equation (14)."""

    def test_basic_value(self):
        # 211 uW x 1.45 s / 960 bits ~= 319 nJ/bit.
        energy = energy_per_data_bit_j(211e-6, 1.45, 120)
        assert energy == pytest.approx(318.7e-9, rel=0.01)

    def test_infinite_delay_gives_infinite_energy(self):
        assert math.isinf(energy_per_data_bit_j(1e-4, math.inf, 120))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            energy_per_data_bit_j(-1.0, 1.0, 120)
        with pytest.raises(ValueError):
            energy_per_data_bit_j(1.0, 1.0, 0)
