"""Link adaptation by channel inversion (Section 4/5, Figure 7).

Since the data rate of the 802.15.4 PHY is fixed, the only degree of freedom
for adapting to the link is the transmit power.  The paper's policy is
*channel inversion*: keep the received signal-to-noise ratio (approximately)
constant by compensating the measured path loss with transmit power, using
the path loss observed on the beacon (valid while the channel stays coherent
over a few packets).

The energy-optimal switching thresholds are found by evaluating the total
energy per delivered bit for every programmable power level over the full
path-loss range and taking, at each path loss, the level with the lowest
energy; the thresholds are the path losses where the per-level curves cross.
The paper observes (and the reproduction confirms) that the thresholds are
essentially independent of the network load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.energy_model import EnergyModel, NodeEnergyBudget


@dataclass(frozen=True)
class PowerThreshold:
    """Switching threshold between two adjacent transmit power levels.

    Attributes
    ----------
    path_loss_db:
        Path loss above which ``upper_level_dbm`` becomes more efficient
        than ``lower_level_dbm``.
    lower_level_dbm / upper_level_dbm:
        The two adjacent programmable levels.
    """

    path_loss_db: float
    lower_level_dbm: float
    upper_level_dbm: float


@dataclass
class LinkAdaptationCurve:
    """Energy-per-bit curves of every power level over a path-loss grid."""

    path_loss_grid_db: np.ndarray
    levels_dbm: List[float]
    energy_per_bit_j: Dict[float, np.ndarray]
    optimal_level_dbm: np.ndarray
    optimal_energy_per_bit_j: np.ndarray


class ChannelInversionPolicy:
    """Computes and applies the energy-optimal transmit-power thresholds.

    Parameters
    ----------
    model:
        The analytical energy model used to score (level, path loss) pairs.
    payload_bytes:
        Packet payload the adaptation is optimised for (120 in the paper).
    load:
        Network load used during threshold computation (the thresholds turn
        out to be essentially load independent, as the paper notes).
    beacon_order:
        Beacon order of the scenario.
    """

    def __init__(self, model: EnergyModel, payload_bytes: int = 120,
                 load: float = 0.42, beacon_order: int = 6):
        self.model = model
        self.payload_bytes = payload_bytes
        self.load = load
        self.beacon_order = beacon_order
        self._curve: Optional[LinkAdaptationCurve] = None
        self._thresholds: Optional[List[PowerThreshold]] = None

    # -- curve computation -----------------------------------------------------------
    def compute_curve(self, path_loss_grid_db: Optional[Sequence[float]] = None,
                      load: Optional[float] = None) -> LinkAdaptationCurve:
        """Energy-per-bit of every level over a path-loss grid (Figure 7)."""
        if path_loss_grid_db is None:
            path_loss_grid_db = np.arange(40.0, 95.5, 0.5)
        grid = np.asarray(path_loss_grid_db, dtype=float)
        load = self.load if load is None else load
        levels = self.model.config.profile.tx_level_dbms()

        packet_bytes = self.model.packet_bytes_on_air(self.payload_bytes)
        contention = self.model.contention_source(load, packet_bytes)

        energy: Dict[float, np.ndarray] = {}
        for level in levels:
            values = np.empty(grid.shape)
            for i, path_loss in enumerate(grid):
                budget = self.model.evaluate(
                    payload_bytes=self.payload_bytes,
                    tx_power_dbm=level,
                    path_loss_db=float(path_loss),
                    load=load,
                    beacon_order=self.beacon_order,
                    contention=contention,
                )
                values[i] = budget.energy_per_bit_j
            energy[level] = values

        stacked = np.vstack([energy[level] for level in levels])
        best_index = np.argmin(stacked, axis=0)
        optimal_level = np.array([levels[i] for i in best_index])
        optimal_energy = stacked[best_index, np.arange(grid.size)]
        curve = LinkAdaptationCurve(
            path_loss_grid_db=grid,
            levels_dbm=list(levels),
            energy_per_bit_j=energy,
            optimal_level_dbm=optimal_level,
            optimal_energy_per_bit_j=optimal_energy,
        )
        self._curve = curve
        return curve

    def compute_thresholds(self, path_loss_grid_db: Optional[Sequence[float]] = None) \
            -> List[PowerThreshold]:
        """Path losses where the optimal level switches (the circles of Fig. 7)."""
        curve = self.compute_curve(path_loss_grid_db)
        thresholds: List[PowerThreshold] = []
        for i in range(1, curve.path_loss_grid_db.size):
            previous = curve.optimal_level_dbm[i - 1]
            current = curve.optimal_level_dbm[i]
            if current != previous:
                thresholds.append(PowerThreshold(
                    path_loss_db=float(curve.path_loss_grid_db[i]),
                    lower_level_dbm=float(previous),
                    upper_level_dbm=float(current),
                ))
        self._thresholds = thresholds
        return thresholds

    # -- application -------------------------------------------------------------------
    def select_level_dbm(self, path_loss_db: float) -> float:
        """Transmit power to use for a measured ``path_loss_db``."""
        if self._thresholds is None:
            self.compute_thresholds()
        level = self.model.config.profile.min_tx_level_dbm
        for threshold in self._thresholds:
            if path_loss_db >= threshold.path_loss_db:
                level = threshold.upper_level_dbm
        return level

    def evaluate_adapted(self, path_loss_db: float,
                         load: Optional[float] = None,
                         payload_bytes: Optional[int] = None) -> NodeEnergyBudget:
        """Model evaluation using the adapted transmit power at ``path_loss_db``."""
        return self.model.evaluate(
            payload_bytes=self.payload_bytes if payload_bytes is None else payload_bytes,
            tx_power_dbm=self.select_level_dbm(path_loss_db),
            path_loss_db=path_loss_db,
            load=self.load if load is None else load,
            beacon_order=self.beacon_order,
        )

    # -- summary metrics ------------------------------------------------------------------
    def adaptation_saving(self, path_loss_low_db: float = 55.0,
                          path_loss_high_db: float = 88.0) -> float:
        """Fractional energy-per-bit saving of adapting vs always transmitting
        at the highest level, evaluated at ``path_loss_low_db``.

        The paper quotes "up to 40 %": a node close to the base station that
        adapts down to -25 dBm instead of staying at 0 dBm.
        """
        adapted = self.evaluate_adapted(path_loss_low_db).energy_per_bit_j
        fixed = self.model.evaluate(
            payload_bytes=self.payload_bytes,
            tx_power_dbm=self.model.config.profile.max_tx_level_dbm,
            path_loss_db=path_loss_low_db,
            load=self.load,
            beacon_order=self.beacon_order,
        ).energy_per_bit_j
        if fixed <= 0:
            raise RuntimeError("Fixed-power energy per bit must be positive")
        return 1.0 - adapted / fixed
