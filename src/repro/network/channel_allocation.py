"""Channel allocation across the sixteen 2450 MHz channels.

The paper's case study splits 1600 nodes over the 16 channels of the
2450 MHz band, 100 nodes per channel, so that each channel runs an
independent star network at ~42 % load.  The allocator assigns nodes to
channels round-robin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.phy.bands import Band, channels_in_band


@dataclass
class ChannelAllocator:
    """Assigns device identifiers to RF channels.

    Parameters
    ----------
    channels:
        The RF channels available (defaults to the sixteen 2450 MHz
        channels, numbers 11–26).
    """

    channels: List[int] = field(
        default_factory=lambda: channels_in_band(Band.BAND_2450MHZ))

    def __post_init__(self):
        if not self.channels:
            raise ValueError("At least one channel is required")

    def allocate_round_robin(self, node_ids: Sequence[int]) -> Dict[int, int]:
        """Deterministic round-robin assignment node -> channel."""
        return {node_id: self.channels[index % len(self.channels)]
                for index, node_id in enumerate(node_ids)}
