"""Reliability arithmetic of the model: equations (7)–(10) and (13)–(14).

These are the probability / delay relations of the paper:

* equation (9):  ``Pr_tf = 1 - (1 - Pr_col)(1 - Pr_e)`` — probability one
  transmission attempt fails (collision or bit errors);
* equation (10): ``Pr_e = 1 - (1 - Pr_bit)^((L_packet - 4) * 8)`` — packet
  error probability (implemented in :mod:`repro.phy.error_model`);
* equations (7)/(8): the distribution of the number of transmissions needed;
* equation (13): ``Pr_fail = 1 - (1 - Pr_cf)(1 - P_tr(>N_max))`` — the
  probability the whole transaction fails in a superframe, and the resulting
  delivery delay ``delay = T_ib / (1 - Pr_fail)`` under the "retry next
  superframe" application policy;
* equation (14): the energy per delivered data bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.phy.error_model import packet_error_probability


@dataclass(frozen=True)
class AttemptDistribution:
    """Distribution of the number of transmissions of one packet.

    Attributes
    ----------
    per_attempt_failure:
        ``Pr_tf`` — probability a single transmission attempt fails.
    max_transmissions:
        ``N_max`` — transmissions allowed before the MAC gives up.
    probabilities:
        ``P_tr(i)`` for ``i = 1 .. N_max`` (equation 7).
    exceed_probability:
        ``P_tr(> N_max)`` (equation 8).
    """

    per_attempt_failure: float
    max_transmissions: int
    probabilities: tuple
    exceed_probability: float

    @property
    def expected_transmissions(self) -> float:
        """Expected number of transmissions, counting aborted packets as N_max.

        This is the factor ``sum_i i P_tr(i) + N_max P_tr(>N_max)`` that
        multiplies the per-attempt times in equations (4)–(6).
        """
        expected = sum((i + 1) * p for i, p in enumerate(self.probabilities))
        return expected + self.max_transmissions * self.exceed_probability

    @property
    def success_probability(self) -> float:
        """Probability the packet is delivered within N_max transmissions."""
        return 1.0 - self.exceed_probability


def transmission_failure_probability(collision_probability: float,
                                     packet_error_probability_value: float) -> float:
    """Equation (9): probability a single transmission attempt fails."""
    for name, value in (("collision_probability", collision_probability),
                        ("packet_error_probability", packet_error_probability_value)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return 1.0 - (1.0 - collision_probability) * (1.0 - packet_error_probability_value)


def transmission_attempt_distribution(per_attempt_failure: float,
                                      max_transmissions: int = 5) -> AttemptDistribution:
    """Equations (7)/(8): the geometric distribution of attempt counts."""
    if not 0.0 <= per_attempt_failure <= 1.0:
        raise ValueError("per_attempt_failure must lie in [0, 1]")
    if max_transmissions < 1:
        raise ValueError("max_transmissions must be at least 1")
    probabilities = tuple(
        per_attempt_failure ** (i - 1) * (1.0 - per_attempt_failure)
        for i in range(1, max_transmissions + 1))
    exceed = per_attempt_failure ** max_transmissions
    return AttemptDistribution(
        per_attempt_failure=per_attempt_failure,
        max_transmissions=max_transmissions,
        probabilities=probabilities,
        exceed_probability=exceed,
    )


def transaction_failure_probability(channel_access_failure: float,
                                    exceed_probability: float) -> float:
    """Equation (13): probability the whole per-superframe transaction fails."""
    for name, value in (("channel_access_failure", channel_access_failure),
                        ("exceed_probability", exceed_probability)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return 1.0 - (1.0 - channel_access_failure) * (1.0 - exceed_probability)


def delivery_delay_s(inter_beacon_period_s: float,
                     transaction_failure: float) -> float:
    """Equation (13, second part): expected delivery delay.

    The application retries a failed transaction in the next superframe, so
    the number of superframes needed is geometric with success probability
    ``1 - Pr_fail`` and the expected delay is ``T_ib / (1 - Pr_fail)``.

    Returns ``inf`` when the transaction never succeeds.
    """
    if inter_beacon_period_s <= 0:
        raise ValueError("inter_beacon_period_s must be positive")
    if not 0.0 <= transaction_failure <= 1.0:
        raise ValueError("transaction_failure must lie in [0, 1]")
    if transaction_failure >= 1.0:
        return math.inf
    return inter_beacon_period_s / (1.0 - transaction_failure)


def energy_per_data_bit_j(average_power_w: float, delay_s: float,
                          data_payload_bytes: int) -> float:
    """Equation (14): energy per delivered application bit."""
    if average_power_w < 0:
        raise ValueError("average_power_w must be non-negative")
    if data_payload_bytes <= 0:
        raise ValueError("data_payload_bytes must be positive")
    if math.isinf(delay_s):
        return math.inf
    return average_power_w * delay_s / (data_payload_bytes * 8)
