"""Sensor-node description tying together placement, link, traffic and radio.

:class:`SensorNode` is the scenario-level description of one node — the
static attributes the analytical model and the packet-level simulation both
consume.  It deliberately contains no behaviour of its own; behaviour lives
in :class:`repro.mac.device.Device` (simulation) and
:class:`repro.core.energy_model.EnergyModel` (analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.channel.awgn import AwgnLink
from repro.network.traffic import PeriodicSensingTraffic
from repro.phy.error_model import EmpiricalBerModel, ErrorModel


@dataclass
class SensorNode:
    """Static description of one sensor node in a scenario.

    Attributes
    ----------
    node_id:
        Unique identifier (>= 1).
    channel:
        RF channel the node is assigned to.
    path_loss_db:
        Attenuation to the base station.
    traffic:
        The node's sensing traffic model.
    tx_power_dbm:
        Transmit power assigned by link adaptation (``None`` = undecided).
    error_model:
        Bit-error model of the node's link.
    """

    node_id: int
    channel: int
    path_loss_db: float
    traffic: PeriodicSensingTraffic = field(default_factory=PeriodicSensingTraffic)
    tx_power_dbm: Optional[float] = None
    error_model: ErrorModel = field(default_factory=EmpiricalBerModel)

    def __post_init__(self):
        if self.node_id < 1:
            raise ValueError("node_id must be >= 1 (0 is the coordinator)")
        if self.path_loss_db < 0:
            raise ValueError("path_loss_db must be non-negative")

    def link(self, sensitivity_dbm: float = -94.0) -> AwgnLink:
        """The AWGN link between this node and the base station."""
        return AwgnLink(path_loss_db=self.path_loss_db,
                        error_model=self.error_model,
                        sensitivity_dbm=sensitivity_dbm)
