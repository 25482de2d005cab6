"""Closed-form approximation of the contention statistics.

Used as an ablation baseline against the Monte-Carlo characterisation
(DESIGN.md, ablation 1), and as a fast fallback when a quick estimate of
``T_cont``, ``N_CCA``, ``Pr_col`` and ``Pr_cf`` is needed without running
the simulator.

The approximation treats the channel seen by a tagged node as busy at a
random CCA instant with probability equal to the channel occupancy
(``p_busy ≈ λ``, slightly inflated by the acknowledgement overhead), and
assumes successive CCAs are independent:

* a backoff stage succeeds (two consecutive clear CCAs) with probability
  ``(1 - p_busy)^2``;
* ``Pr_cf`` is the probability that all ``1 + max_csma_backoffs`` stages
  fail;
* ``N_CCA`` follows from the expected number of CCAs per stage
  (1 + (1 - p_busy), i.e. the second CCA only happens if the first was
  clear ... plus the stages that end busy on the first CCA);
* ``T_cont`` sums the expected random backoff delays of the visited stages
  plus one slot per CCA;
* ``Pr_col`` is the probability that at least one other node ends its own
  contention in the same backoff slot, approximated from the per-slot
  transmission-start rate of the offered load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.contention.statistics import ContentionStatistics
from repro.mac.constants import MAC_2450MHZ, MacConstants
from repro.mac.csma import CsmaParameters


@dataclass
class ClosedFormContentionModel:
    """Analytic approximation of the slotted CSMA/CA behaviour.

    Parameters
    ----------
    num_nodes:
        Number of nodes sharing the channel (100 in the paper).
    csma_params:
        CSMA/CA parameters (paper convention: at most 2 extra backoffs).
    constants:
        MAC constants.
    busy_inflation:
        Multiplicative factor applied to the load to obtain the CCA busy
        probability (accounts for the acknowledgement airtime that also
        occupies the channel); calibrated to ~1.15 against the Monte-Carlo.
    """

    num_nodes: int = 100
    csma_params: Optional[CsmaParameters] = None
    constants: MacConstants = MAC_2450MHZ
    busy_inflation: float = 1.15

    def __post_init__(self):
        if self.csma_params is None:
            self.csma_params = CsmaParameters.from_mac_constants(self.constants)

    # -- internals -----------------------------------------------------------------
    def busy_probability(self, load: float) -> float:
        """Probability a random CCA finds the channel occupied."""
        return min(0.999, max(0.0, load * self.busy_inflation))

    def _stage_backoff_means(self) -> list:
        """Expected random delay (slots) of each backoff stage."""
        params = self.csma_params
        means = []
        be = params.initial_backoff_exponent()
        for _ in range(params.max_csma_backoffs + 1):
            means.append((2 ** be - 1) / 2.0)
            be = params.clamp_backoff_exponent(be + 1)
        return means

    # -- the four quantities ----------------------------------------------------------
    def evaluate(self, load: float, packet_bytes: int) -> ContentionStatistics:
        """Closed-form estimate of the contention statistics at (λ, size)."""
        params = self.csma_params
        p_busy = self.busy_probability(load)
        p_clear = 1.0 - p_busy
        p_stage_success = p_clear ** params.contention_window
        stages = params.max_csma_backoffs + 1

        # Probability of reaching (and failing) every stage.
        pr_cf = (1.0 - p_stage_success) ** stages

        # Expected CCAs: per visited stage, the node performs 1 CCA always and
        # a second one only if the first was clear (for CW = 2).
        ccas_per_stage = 1.0 + p_clear if params.contention_window == 2 else \
            sum(p_clear ** k for k in range(params.contention_window))
        expected_stages = 0.0
        reach_probability = 1.0
        for _ in range(stages):
            expected_stages += reach_probability
            reach_probability *= (1.0 - p_stage_success)
        n_cca = ccas_per_stage * expected_stages

        # Contention time: backoff delays of the visited stages + CCA slots.
        slot_s = self.constants.unit_backoff_period_s
        backoff_means = self._stage_backoff_means()
        expected_backoff_slots = 0.0
        reach_probability = 1.0
        for stage_index in range(stages):
            expected_backoff_slots += reach_probability * backoff_means[stage_index]
            reach_probability *= (1.0 - p_stage_success)
        t_cont = (expected_backoff_slots + n_cca) * slot_s

        # Collision probability: another node starts transmitting in the same
        # slot.  The aggregate transmission-start rate is (load x capacity) /
        # packet airtime; per backoff slot that is:
        packet_airtime_s = packet_bytes * self.constants.timing.byte_period_s
        starts_per_slot = load * slot_s / packet_airtime_s * (self.num_nodes - 1) \
            / max(self.num_nodes, 1) * self.num_nodes
        # Probability at least one of the *other* nodes starts in the same slot:
        other_rate = load * slot_s / packet_airtime_s
        pr_col = 1.0 - math.exp(-other_rate)

        return ContentionStatistics(
            load=load,
            packet_bytes=packet_bytes,
            mean_contention_time_s=t_cont,
            mean_cca_count=n_cca,
            collision_probability=min(1.0, pr_col),
            channel_access_failure_probability=min(1.0, pr_cf),
            mean_backoff_slots=expected_backoff_slots,
            samples=0,
        )

    def __call__(self, load: float, packet_bytes: int) -> ContentionStatistics:
        """Alias for :meth:`evaluate` so the model can act as a source."""
        return self.evaluate(load, packet_bytes)
