"""Unit tests of the sensor-node description."""

import pytest

from repro.network.node import SensorNode


class TestSensorNode:
    def test_basic_construction(self):
        node = SensorNode(node_id=5, channel=11, path_loss_db=70.0)
        assert node.tx_power_dbm is None
        assert node.traffic.payload_bytes == 120

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SensorNode(node_id=0, channel=11, path_loss_db=70.0)
        with pytest.raises(ValueError):
            SensorNode(node_id=1, channel=11, path_loss_db=-1.0)

    def test_link_construction(self):
        node = SensorNode(node_id=1, channel=11, path_loss_db=88.0)
        link = node.link()
        assert link.path_loss_db == 88.0
        assert link.packet_error_probability(0.0, 133) > 0.0
