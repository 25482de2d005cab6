"""The dense microsensor network case study of Section 5.

Scenario: 1600 nodes uniformly distributed around a base station, 16
channels in the 2450 MHz band, hence 100 nodes per channel.  Each node
senses 1 byte every 8 ms (1 kbit/s) and buffers readings until a 120-byte
packet is available, i.e. one packet every 960 ms.  With beacon order 6
(inter-beacon period 983 ms) one packet per node fits per superframe and
the channel load is about 42 %.  Path losses are uniformly distributed
between 55 and 95 dB and every node adapts its transmit power by channel
inversion.

The paper's reported results: average power 211 µW, delivery delay 1.45 s,
transmission-failure probability 16 %, with the breakdowns of Figure 9 and
the improvement perspectives (−12 % / −15 %).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.channel.pathloss import UniformPathLossDistribution
from repro.core.breakdown import EnergyBreakdown, TimeBreakdown, average_breakdowns
from repro.core.energy_model import EnergyModel, NodeEnergyBudget
from repro.core.improvements import ImprovementAnalysis, ImprovementResult
from repro.core.link_adaptation import ChannelInversionPolicy
from repro.mac.superframe import SuperframeConfig


@dataclass(frozen=True)
class CaseStudyParameters:
    """Scenario parameters of the Section 5 case study."""

    total_nodes: int = 1600
    channels: int = 16
    node_data_rate_bps: float = 1000.0       # 1 byte / 8 ms
    sensing_interval_s: float = 8e-3
    sensing_bytes: int = 1
    payload_bytes: int = 120
    beacon_order: int = 6
    path_loss_low_db: float = 55.0
    path_loss_high_db: float = 95.0

    @property
    def nodes_per_channel(self) -> int:
        """Nodes sharing one channel (100 in the paper)."""
        return self.total_nodes // self.channels

    @property
    def packet_accumulation_period_s(self) -> float:
        """Time to buffer one full payload (960 ms in the paper)."""
        return (self.payload_bytes / self.sensing_bytes) * self.sensing_interval_s

    def path_loss_distribution(self) -> UniformPathLossDistribution:
        """The U(55, 95) dB path-loss distribution."""
        return UniformPathLossDistribution(self.path_loss_low_db,
                                           self.path_loss_high_db)


@dataclass
class CaseStudyResult:
    """Population-level results of the case study."""

    parameters: CaseStudyParameters
    channel_load: float
    inter_beacon_period_s: float
    average_power_w: float
    mean_delivery_delay_s: float
    mean_failure_probability: float
    mean_energy_per_bit_j: float
    energy_breakdown: EnergyBreakdown
    time_breakdown: TimeBreakdown
    per_node_budgets: List[NodeEnergyBudget] = field(default_factory=list)
    thresholds: List = field(default_factory=list)


class CaseStudy:
    """Run the Section 5 case study with the analytical model.

    Parameters
    ----------
    model:
        Analytical energy model, e.g.
        ``EnergyModel(contention_source=build_contention_table())``.
    parameters:
        Scenario parameters (paper values when omitted).
    path_loss_resolution:
        Number of path-loss grid points the population average is computed
        over (the distribution is continuous; the grid is an equal-mass
        discretisation).
    """

    def __init__(self, model: EnergyModel,
                 parameters: Optional[CaseStudyParameters] = None,
                 path_loss_resolution: int = 81):
        self.model = model
        self.parameters = parameters or CaseStudyParameters()
        self.path_loss_resolution = path_loss_resolution

    # -- scenario-level derived quantities ------------------------------------------------
    def superframe_config(self) -> SuperframeConfig:
        """Superframe configuration of the scenario (BO = SO = 6)."""
        return SuperframeConfig(
            beacon_order=self.parameters.beacon_order,
            superframe_order=self.parameters.beacon_order,
            constants=self.model.config.constants,
        )

    def channel_load(self) -> float:
        """Offered load per channel (≈ 0.42 in the paper)."""
        config = self.superframe_config()
        on_air = self.model.packet_bytes_on_air(self.parameters.payload_bytes)
        period = config.beacon_interval_s
        packets_per_beacon = min(
            1.0, period / self.parameters.packet_accumulation_period_s)
        return config.offered_load(
            nodes=self.parameters.nodes_per_channel,
            payload_bytes=on_air,
            packets_per_node_per_beacon=packets_per_beacon)

    # -- evaluation --------------------------------------------------------------------------
    def run(self, link_adaptation: bool = True) -> CaseStudyResult:
        """Evaluate the case study over the path-loss population.

        ``link_adaptation=False`` forces every node to the maximum transmit
        power; the ``case_study`` experiment reports the saving against it.
        """
        params = self.parameters
        load = self.channel_load()
        distribution = params.path_loss_distribution()
        grid = distribution.grid(self.path_loss_resolution)

        policy = ChannelInversionPolicy(
            self.model,
            payload_bytes=params.payload_bytes,
            load=load,
            beacon_order=params.beacon_order,
        )
        thresholds = policy.compute_thresholds() if link_adaptation else []

        budgets: List[NodeEnergyBudget] = []
        for path_loss in grid:
            if link_adaptation:
                level = policy.select_level_dbm(float(path_loss))
            else:
                level = self.model.config.profile.max_tx_level_dbm
            budgets.append(self.model.evaluate(
                payload_bytes=params.payload_bytes,
                tx_power_dbm=level,
                path_loss_db=float(path_loss),
                load=load,
                beacon_order=params.beacon_order,
            ))

        average_power = float(np.mean([b.average_power_w for b in budgets]))
        finite_delays = [b.delivery_delay_s for b in budgets
                         if math.isfinite(b.delivery_delay_s)]
        mean_delay = float(np.mean(finite_delays)) if finite_delays else math.inf
        mean_failure = float(np.mean(
            [b.transaction_failure_probability for b in budgets]))
        finite_energy = [b.energy_per_bit_j for b in budgets
                         if math.isfinite(b.energy_per_bit_j)]
        mean_energy_per_bit = (float(np.mean(finite_energy))
                               if finite_energy else math.inf)
        energy_breakdown, time_breakdown = average_breakdowns(budgets)

        return CaseStudyResult(
            parameters=params,
            channel_load=load,
            inter_beacon_period_s=budgets[0].inter_beacon_period_s,
            average_power_w=average_power,
            mean_delivery_delay_s=mean_delay,
            mean_failure_probability=mean_failure,
            mean_energy_per_bit_j=mean_energy_per_bit,
            energy_breakdown=energy_breakdown,
            time_breakdown=time_breakdown,
            per_node_budgets=budgets,
            thresholds=thresholds,
        )

    # -- improvement perspectives -----------------------------------------------------------
    def improvement_analysis(self) -> ImprovementAnalysis:
        """The Section 5/6 improvement analysis bound to this scenario."""
        def evaluator(model: EnergyModel) -> float:
            return CaseStudy(model=model, parameters=self.parameters,
                             path_loss_resolution=self.path_loss_resolution) \
                .run().average_power_w
        return ImprovementAnalysis(self.model, evaluator)

    def improvements(self, transition_factor: float = 0.5,
                     rx_scale: float = 0.5) -> List[ImprovementResult]:
        """Evaluate the paper's two improvement perspectives on this scenario."""
        return self.improvement_analysis().run(transition_factor, rx_scale)
