"""Improvement perspectives (end of Section 5 / Section 6 of the paper).

Starting from the case-study energy breakdown, the paper proposes two
transceiver-level improvements and quantifies them with the model:

1. **Faster state transitions** — "Reducing the transition time between
   states by a factor two would decrease the total average power by 12 %."
   Modelled by scaling every transition time/energy of the radio profile.
2. **Scalable receiver** — "a scalable receiver that offers a low power mode
   for sensing the channel and waiting for an acknowledgement frame has the
   potential of reducing the total average power by an additional 15 %."
   Modelled by scaling the receive power charged during clear channel
   assessment and acknowledgement waiting (the data/beacon reception keeps
   the full receiver).

:class:`ImprovementAnalysis` evaluates a baseline scenario and the two
improvements (individually and combined) and reports the relative savings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.core.energy_model import EnergyModel


@dataclass(frozen=True)
class ImprovementResult:
    """Average power of one model variant and its saving vs the baseline."""

    name: str
    average_power_w: float
    baseline_power_w: float

    @property
    def relative_saving(self) -> float:
        """Fractional reduction of the average power vs the baseline."""
        if self.baseline_power_w <= 0:
            raise ValueError("Baseline power must be positive")
        return 1.0 - self.average_power_w / self.baseline_power_w


#: An evaluation callback: model -> population-average power in watts.
ScenarioEvaluator = Callable[[EnergyModel], float]


class ImprovementAnalysis:
    """Quantify the paper's two improvement perspectives.

    Parameters
    ----------
    model:
        Baseline energy model (CC2420 profile, paper activation policy).
    evaluator:
        Callable mapping a model to the scenario's average power.  For the
        paper's numbers this is the case-study population average; simpler
        single-point evaluators work for unit tests.
    """

    def __init__(self, model: EnergyModel, evaluator: ScenarioEvaluator):
        self.model = model
        self.evaluator = evaluator

    # -- variants -----------------------------------------------------------------------
    def baseline(self) -> float:
        """Average power of the unmodified model."""
        return self.evaluator(self.model)

    def faster_transitions(self, factor: float = 0.5) -> EnergyModel:
        """Model variant with every state transition scaled by ``factor``."""
        profile = self.model.config.profile.with_scaled_transitions(factor)
        return self.model.with_profile(profile)

    def scalable_receiver(self, rx_scale: float = 0.5) -> EnergyModel:
        """Model variant with a low-power receive mode for CCA and ACK wait."""
        return self.model.with_config(cca_rx_power_scale=rx_scale,
                                      ack_rx_power_scale=rx_scale)

    def combined(self, transition_factor: float = 0.5,
                 rx_scale: float = 0.5) -> EnergyModel:
        """Both improvements applied together."""
        profile = self.model.config.profile.with_scaled_transitions(transition_factor)
        return self.model.with_profile(profile).with_config(
            cca_rx_power_scale=rx_scale, ack_rx_power_scale=rx_scale)

    # -- analysis -----------------------------------------------------------------------
    def run(self, transition_factor: float = 0.5,
            rx_scale: float = 0.5) -> List[ImprovementResult]:
        """Evaluate baseline, each improvement, and the combination.

        Returns the results in presentation order: baseline, faster
        transitions, scalable receiver, combined.
        """
        baseline_power = self.baseline()
        variants = [
            ("baseline", self.model),
            (f"transitions x{transition_factor:g}",
             self.faster_transitions(transition_factor)),
            (f"scalable receiver x{rx_scale:g}",
             self.scalable_receiver(rx_scale)),
            ("combined", self.combined(transition_factor, rx_scale)),
        ]
        results = []
        for name, variant in variants:
            power = baseline_power if variant is self.model else self.evaluator(variant)
            results.append(ImprovementResult(
                name=name,
                average_power_w=power,
                baseline_power_w=baseline_power,
            ))
        return results
