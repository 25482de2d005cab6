"""Unit tests of the frequency-band / channel catalogue."""

import pytest

from repro.phy.bands import Band, CHANNEL_PAGES, channels_in_band


class TestChannelCatalogue:
    def test_2450mhz_band_has_16_channels(self):
        assert len(channels_in_band(Band.BAND_2450MHZ)) == 16

    def test_915mhz_band_has_10_channels(self):
        assert len(channels_in_band(Band.BAND_915MHZ)) == 10

    def test_868mhz_band_has_1_channel(self):
        assert channels_in_band(Band.BAND_868MHZ) == [0]

    def test_total_channel_count_is_27(self):
        total = sum(len(page.channels()) for page in CHANNEL_PAGES.values())
        assert total == 27

    def test_channel_numbers_of_2450mhz_are_11_to_26(self):
        assert channels_in_band(Band.BAND_2450MHZ) == list(range(11, 27))

    def test_pages_partition_channels_0_to_26(self):
        numbers = [n for page in CHANNEL_PAGES.values()
                   for n in page.channels()]
        assert sorted(numbers) == list(range(27))

    @pytest.mark.parametrize("band, bit_rate_bps, symbol_rate_hz", [
        (Band.BAND_868MHZ, 20_000.0, 20_000.0),
        (Band.BAND_915MHZ, 40_000.0, 40_000.0),
        (Band.BAND_2450MHZ, 250_000.0, 62_500.0),
    ])
    def test_each_band_has_its_timing(self, band, bit_rate_bps,
                                      symbol_rate_hz):
        page = CHANNEL_PAGES[band]
        assert page.band is band
        assert page.timing.bit_rate_bps == bit_rate_bps
        assert page.timing.symbol_rate_hz == pytest.approx(symbol_rate_hz)
