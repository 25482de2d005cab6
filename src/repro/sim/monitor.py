"""Statistics collectors for simulation runs.

Two collectors cover the needs of the MAC simulation, the result cache and
the tracer:

``Monitor``
    Plain sample collector (mean / variance / percentiles of observations).

``CounterMonitor``
    Named event counters with convenient ratio helpers (e.g. collisions per
    attempted transmission).

numpy is imported by the :class:`Monitor` statistics that use it, so the
result cache and the tracer, which count with :class:`CounterMonitor`,
load without it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:
    import numpy as np


class Monitor:
    """Collects scalar observations and exposes summary statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self._values: List[float] = []

    def record(self, value: float) -> None:
        """Append one observation."""
        self._values.append(float(value))

    @property
    def count(self) -> int:
        """Number of recorded observations."""
        return len(self._values)

    @property
    def values(self) -> np.ndarray:
        """All observations as an array (copy)."""
        import numpy as np
        return np.asarray(self._values, dtype=float)

    @property
    def total(self) -> float:
        """Sum of all observations."""
        if not self._values:
            return 0.0
        import numpy as np
        return float(np.sum(self._values))

    @property
    def mean(self) -> float:
        """Arithmetic mean; ``nan`` when empty."""
        if not self._values:
            return math.nan
        import numpy as np
        return float(np.mean(self._values))

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1); ``nan`` with < 2 samples."""
        if len(self._values) < 2:
            return math.nan
        import numpy as np
        return float(np.std(self._values, ddof=1))

    @property
    def max(self) -> float:
        """Largest observation; ``nan`` when empty."""
        if not self._values:
            return math.nan
        import numpy as np
        return float(np.max(self._values))

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the observations; ``nan`` when empty."""
        if not self._values:
            return math.nan
        import numpy as np
        return float(np.percentile(self._values, q))

    def confidence_interval(self, level: float = 0.95) -> tuple:
        """Normal-approximation confidence interval for the mean.

        Returns ``(low, high)``; ``(nan, nan)`` with fewer than two samples.
        """
        if len(self._values) < 2:
            return (math.nan, math.nan)
        # Two-sided normal quantile; 1.96 for 95 %, generalised via the
        # inverse error function to avoid a scipy dependency in the core.
        alpha = 1.0 - level
        z = math.sqrt(2.0) * _erfinv(1.0 - alpha)
        half = z * self.std / math.sqrt(self.count)
        return (self.mean - half, self.mean + half)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Monitor(name={self.name!r}, count={self.count}, "
                f"mean={self.mean:.6g})" if self._values
                else f"Monitor(name={self.name!r}, empty)")


def _erfinv(y: float) -> float:
    """Inverse error function (Winitzki approximation, ~1e-3 accurate).

    Sufficient for confidence-interval half-widths; kept dependency-free so
    the simulation kernel does not require scipy.
    """
    if not -1.0 < y < 1.0:
        raise ValueError("erfinv argument must lie in (-1, 1)")
    a = 0.147
    ln_term = math.log(1.0 - y * y)
    first = 2.0 / (math.pi * a) + ln_term / 2.0
    inside = first * first - ln_term / a
    return math.copysign(math.sqrt(math.sqrt(inside) - first), y)


class CounterMonitor:
    """Named integer counters with ratio helpers."""

    def __init__(self, name: str = ""):
        self.name = name
        self._counts: Dict[str, int] = {}

    def increment(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``key`` (created at zero on first use)."""
        self._counts[key] = self._counts.get(key, 0) + int(amount)

    def get(self, key: str) -> int:
        """Current value of counter ``key`` (zero if never incremented)."""
        return self._counts.get(key, 0)

    def as_dict(self) -> Dict[str, int]:
        """Copy of all counters."""
        return dict(self._counts)

    def __getitem__(self, key: str) -> int:
        return self.get(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CounterMonitor(name={self.name!r}, counts={self._counts})"
