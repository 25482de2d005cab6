"""Additive-white-Gaussian-noise link abstraction.

The paper's whole link-quality analysis reduces to: received power =
transmit power minus path loss (equation 2), and the bit-error rate is a
function of the received power only (equation 1, AWGN assumption, valid
while the channel is coherent over one packet).  :class:`AwgnLink` bundles
those two equations with packet-level helpers (packet-error probability and
Bernoulli packet-corruption draws for the event-driven simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.phy.error_model import EmpiricalBerModel, ErrorModel, packet_error_probability


@dataclass
class AwgnLink:
    """A point-to-point AWGN link characterised by its path loss.

    Attributes
    ----------
    path_loss_db:
        Attenuation between transmitter and receiver (``A`` in the paper).
    error_model:
        Bit-error model as a function of received power; defaults to the
        paper's empirical CC2420 regression.
    sensitivity_dbm:
        Received power below which the receiver cannot synchronise at all;
        packets below sensitivity are always lost.
    """

    path_loss_db: float
    error_model: ErrorModel = field(default_factory=EmpiricalBerModel)
    sensitivity_dbm: float = -94.0

    def received_power_dbm(self, tx_power_dbm: float) -> float:
        """Equation (2): P_Rx = P_Tx - A."""
        return tx_power_dbm - self.path_loss_db

    def is_in_range(self, tx_power_dbm: float) -> bool:
        """Whether the received power is at or above the sensitivity."""
        return self.received_power_dbm(tx_power_dbm) >= self.sensitivity_dbm

    def bit_error_probability(self, tx_power_dbm: float) -> float:
        """BER experienced at the receiver for the given transmit power."""
        rx = self.received_power_dbm(tx_power_dbm)
        if rx < self.sensitivity_dbm:
            return 0.5
        return self.error_model.bit_error_probability(rx)

    def packet_error_probability(self, tx_power_dbm: float,
                                 packet_bytes: int) -> float:
        """Packet-error probability per equation (10)."""
        if not self.is_in_range(tx_power_dbm):
            return 1.0
        return packet_error_probability(
            self.bit_error_probability(tx_power_dbm), packet_bytes)

    def packet_is_corrupted(self, tx_power_dbm: float, packet_bytes: int,
                            rng: np.random.Generator) -> bool:
        """Bernoulli draw of a packet corruption event (for simulation)."""
        return bool(rng.random() < self.packet_error_probability(
            tx_power_dbm, packet_bytes))
