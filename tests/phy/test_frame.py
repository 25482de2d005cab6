"""Unit tests of PHY framing sizes."""

from repro.phy.frame import PHY_HEADER_BYTES, PHY_PREAMBLE_BYTES, PHY_SFD_BYTES


class TestPhyFrameSizes:
    def test_phy_header_is_6_bytes(self):
        assert PHY_HEADER_BYTES == 6
        assert PHY_PREAMBLE_BYTES == 4
        assert PHY_SFD_BYTES == 1
