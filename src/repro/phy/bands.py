"""Frequency bands and channel catalogue of IEEE 802.15.4-2003.

The standard defines 27 channels across three bands:

* channel 0           — 868.3 MHz (Europe / Japan), BPSK, 20 kbit/s;
* channels 1 – 10     — 902–928 MHz (US), BPSK, 40 kbit/s;
* channels 11 – 26    — 2400–2483.5 MHz (worldwide ISM), O-QPSK, 250 kbit/s.

The dense-network case study of the paper uses the sixteen 2450 MHz channels
to split 1600 nodes into groups of 100 nodes per channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List

from repro.phy.constants import (
    PhyTiming,
    TIMING_2450MHZ,
    TIMING_868MHZ,
    TIMING_915MHZ,
)


class Band(Enum):
    """The three frequency bands of 802.15.4-2003."""

    BAND_868MHZ = "868MHz"
    BAND_915MHZ = "915MHz"
    BAND_2450MHZ = "2450MHz"


@dataclass(frozen=True)
class ChannelPage:
    """Description of one band: its channels and PHY timing."""

    band: Band
    timing: PhyTiming
    first_channel: int
    last_channel: int

    @property
    def channel_count(self) -> int:
        """Number of channels in the band."""
        return self.last_channel - self.first_channel + 1

    def channels(self) -> List[int]:
        """Channel numbers belonging to this band."""
        return list(range(self.first_channel, self.last_channel + 1))


#: Catalogue of the three channel pages keyed by band.
CHANNEL_PAGES: Dict[Band, ChannelPage] = {
    Band.BAND_868MHZ: ChannelPage(
        band=Band.BAND_868MHZ,
        timing=TIMING_868MHZ,
        first_channel=0,
        last_channel=0,
    ),
    Band.BAND_915MHZ: ChannelPage(
        band=Band.BAND_915MHZ,
        timing=TIMING_915MHZ,
        first_channel=1,
        last_channel=10,
    ),
    Band.BAND_2450MHZ: ChannelPage(
        band=Band.BAND_2450MHZ,
        timing=TIMING_2450MHZ,
        first_channel=11,
        last_channel=26,
    ),
}


def channels_in_band(band: Band) -> List[int]:
    """Channel numbers available in ``band``."""
    return CHANNEL_PAGES[band].channels()
