"""The paper's primary contribution: the analytical energy/reliability model.

Section 4 of the paper builds, on top of the radio characterisation and the
Monte-Carlo contention statistics, an analytical model of

* the average time an 802.15.4 node spends in idle / transmit / receive per
  superframe when it follows the energy-aware activation policy
  (equations 4–6),
* the resulting average power (equation 11),
* the transmission failure probability (equation 13), the delivery delay and
  the energy per useful bit (equations 13–14).

Section 5 then uses the model to derive the link-adaptation thresholds
(Figure 7), the optimal packet size (Figure 8), the dense-network case study
(211 µW / 1.45 s / 16 %) and the energy breakdown with its improvement
perspectives (Figure 9).

Package layout
--------------

========================  =====================================================
Module                    Content
========================  =====================================================
``activation_policy``     The radio activation policy and its ablation variants
``reliability``           Equations (7)–(10), (13): P_tr, Pr_tf, Pr_fail, delay
``energy_model``          Equations (3)–(6), (11)–(12), (14): the power model
``link_adaptation``       Channel-inversion transmit-power thresholds (Fig. 7)
``optimizer``             Packet-size and beacon-order optimisation (Fig. 8)
``breakdown``             Energy-per-phase / time-per-state breakdown (Fig. 9)
``improvements``          Transition-time and scalable-receiver perspectives
``case_study``            The 1600-node dense-network scenario of Section 5
========================  =====================================================

The names resolve on first access.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.core.activation_policy": ("ActivationPolicy", "PolicyVariant"),
    "repro.core.energy_model": ("EnergyModel", "ModelConfig",
                                "NodeEnergyBudget"),
    "repro.core.breakdown": ("EnergyBreakdown", "TimeBreakdown"),
    "repro.core.link_adaptation": ("ChannelInversionPolicy", "PowerThreshold"),
    "repro.core.optimizer": ("PacketSizeOptimizer", "BeaconOrderSelector"),
    "repro.core.improvements": ("ImprovementAnalysis", "ImprovementResult"),
    "repro.core.case_study": ("CaseStudy", "CaseStudyParameters",
                              "CaseStudyResult"),
    "repro.core.reliability": ("transmission_attempt_distribution",
                               "transmission_failure_probability",
                               "transaction_failure_probability",
                               "delivery_delay_s", "energy_per_data_bit_j"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
