"""Contention-characterisation tables with interpolation.

Re-running the Monte-Carlo for every query of the energy model would be
wasteful — the paper itself characterises the contention behaviour once
(Figure 6) and then reads the curves.  :class:`ContentionTable` stores the
statistics on a (load, packet size) grid and answers arbitrary queries by
bilinear interpolation, which is exactly how the analytical model consumes
the characterisation.  :func:`build_contention_table` is the one way the
library characterises a grid: one seeded Monte-Carlo task per point.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

from repro.constants import PAPER_SEED
from repro.contention.statistics import ContentionStatistics

#: Grid axes of the paper characterisation (covers every paper figure):
#: the defaults of :func:`build_contention_table` and of the engine's
#: ``contention_table`` experiment.
TABLE_LOADS = (0.05, 0.1, 0.2, 0.3, 0.42, 0.5, 0.6, 0.75, 0.9)
TABLE_SIZES = (20, 33, 63, 93, 113, 133)


def _ascending_axes(loads: Sequence[float], packet_sizes: Sequence[int]
                    ) -> Tuple[List[float], List[int]]:
    """The grid axes as floats and ints; raises unless both ascend."""
    loads = [float(l) for l in loads]
    packet_sizes = [int(s) for s in packet_sizes]
    if loads != sorted(loads):
        raise ValueError("loads must be given in ascending order")
    if packet_sizes != sorted(packet_sizes):
        raise ValueError("packet_sizes must be given in ascending order")
    return loads, packet_sizes


class ContentionTable:
    """Interpolating lookup table of contention statistics.

    Parameters
    ----------
    loads:
        Grid of load values (ascending).
    packet_sizes:
        Grid of on-air packet sizes in bytes (ascending).
    statistics:
        Mapping ``(load_index, size_index) -> ContentionStatistics``.
    """

    _FIELDS = ("mean_contention_time_s", "mean_cca_count",
               "collision_probability", "channel_access_failure_probability",
               "mean_backoff_slots")

    def __init__(self, loads: Sequence[float], packet_sizes: Sequence[int],
                 statistics: Dict[Tuple[int, int], ContentionStatistics]):
        self.loads, self.packet_sizes = _ascending_axes(loads, packet_sizes)
        for i in range(len(self.loads)):
            for j in range(len(self.packet_sizes)):
                if (i, j) not in statistics:
                    raise ValueError(
                        f"Missing statistics for grid point ({i}, {j})")
        self._statistics = dict(statistics)

    # -- lookup -----------------------------------------------------------------------
    def _bracket(self, grid: List[float], value: float) -> Tuple[int, int, float]:
        """Indices and interpolation weight for ``value`` on ``grid`` (clamped)."""
        if value <= grid[0]:
            return 0, 0, 0.0
        if value >= grid[-1]:
            last = len(grid) - 1
            return last, last, 0.0
        hi = bisect.bisect_right(grid, value)
        lo = hi - 1
        weight = (value - grid[lo]) / (grid[hi] - grid[lo])
        return lo, hi, weight

    def lookup(self, load: float, packet_bytes: int) -> ContentionStatistics:
        """Bilinearly interpolated statistics at (``load``, ``packet_bytes``).

        Queries outside the grid are clamped to the nearest edge.
        """
        li_lo, li_hi, lw = self._bracket(self.loads, float(load))
        si_lo, si_hi, sw = self._bracket([float(s) for s in self.packet_sizes],
                                         float(packet_bytes))

        def value(field: str) -> float:
            v00 = getattr(self._statistics[(li_lo, si_lo)], field)
            v01 = getattr(self._statistics[(li_lo, si_hi)], field)
            v10 = getattr(self._statistics[(li_hi, si_lo)], field)
            v11 = getattr(self._statistics[(li_hi, si_hi)], field)
            v0 = v00 * (1 - sw) + v01 * sw
            v1 = v10 * (1 - sw) + v11 * sw
            return v0 * (1 - lw) + v1 * lw

        return ContentionStatistics(
            load=float(load),
            packet_bytes=int(packet_bytes),
            mean_contention_time_s=value("mean_contention_time_s"),
            mean_cca_count=value("mean_cca_count"),
            collision_probability=min(1.0, max(0.0, value("collision_probability"))),
            channel_access_failure_probability=min(
                1.0, max(0.0, value("channel_access_failure_probability"))),
            mean_backoff_slots=value("mean_backoff_slots"),
            samples=0,
        )

    def __call__(self, load: float, packet_bytes: int) -> ContentionStatistics:
        """Alias for :meth:`lookup` so the table can act as a model source."""
        return self.lookup(load, packet_bytes)

    # -- export ------------------------------------------------------------------------
    def grid_statistics(self) -> List[ContentionStatistics]:
        """All grid-point statistics (row-major: loads outer, sizes inner)."""
        out = []
        for i in range(len(self.loads)):
            for j in range(len(self.packet_sizes)):
                out.append(self._statistics[(i, j)])
        return out

    def to_payload(self) -> Dict:
        """A JSON-serialisable snapshot of the full table.

        The inverse of :meth:`from_payload`; used by the experiment engine's
        on-disk result cache so a characterisation survives across processes.
        """
        cells = []
        for i in range(len(self.loads)):
            for j in range(len(self.packet_sizes)):
                stats = self._statistics[(i, j)]
                cells.append({field: getattr(stats, field)
                              for field in self._FIELDS}
                             | {"load": stats.load,
                                "packet_bytes": stats.packet_bytes,
                                "samples": stats.samples})
        return {"loads": list(self.loads),
                "packet_sizes": list(self.packet_sizes),
                "cells": cells}

    @classmethod
    def from_payload(cls, payload: Dict) -> "ContentionTable":
        """Rebuild a table from a :meth:`to_payload` snapshot."""
        loads = payload["loads"]
        packet_sizes = payload["packet_sizes"]
        statistics: Dict[Tuple[int, int], ContentionStatistics] = {}
        cells = iter(payload["cells"])
        for i in range(len(loads)):
            for j in range(len(packet_sizes)):
                statistics[(i, j)] = ContentionStatistics(**next(cells))
        return cls(loads, packet_sizes, statistics)


def build_contention_table(loads: Sequence[float] = TABLE_LOADS,
                           packet_sizes: Sequence[int] = TABLE_SIZES,
                           num_windows: int = 15,
                           executor=None,
                           seed: int = PAPER_SEED,
                           num_nodes: int = 100) -> ContentionTable:
    """Characterise the full (load, packet size) grid by Monte-Carlo.

    Each grid point is characterised by its own simulator seeded via
    :func:`repro.sim.random.spawn_seeds` (stream ``"contention.table"``), so
    the points are independent tasks and the table is bit-identical whether
    they run in the caller, on a serial executor or on the worker pool.  The
    defaults are the ``contention_table`` experiment's, so
    ``build_contention_table()`` is the table ``repro run case_study`` reads.

    Parameters
    ----------
    loads / packet_sizes:
        Grid axes (ascending).
    num_windows:
        Contention windows simulated per grid point.
    executor:
        A :mod:`repro.runner.executor` strategy sharing the points out;
        ``None`` runs them serially in the caller.
    seed / num_nodes:
        Master seed of the per-point seed family and contending node count.
    """
    from repro.contention.monte_carlo import characterize_grid

    loads, packet_sizes = _ascending_axes(loads, packet_sizes)
    cells = [(i, j) for i in range(len(loads))
             for j in range(len(packet_sizes))]
    stats = characterize_grid([(loads[i], packet_sizes[j]) for i, j in cells],
                              num_windows=num_windows, num_nodes=num_nodes,
                              seed=seed, executor=executor,
                              stream_name="contention.table")
    return ContentionTable(loads, packet_sizes, dict(zip(cells, stats)))
