"""Sensor-node description: channel and link.

:class:`SensorNode` is the scenario-level description of one node — the
static attributes both packet-level kernels consume.  It deliberately
contains no behaviour of its own; behaviour lives in
:class:`repro.mac.device.Device` and the batched kernel
(:mod:`repro.mac.vectorized`), and each node's transmit level travels with
its lane (:class:`repro.mac.vectorized.ChannelLane`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channel.awgn import AwgnLink
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
        Attenuation of the node's uplink (to the base station, or to its
        parent in a routed channel).
    error_model:
        Bit-error model of the node's link.
    """

    node_id: int
    channel: int
    path_loss_db: float
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
