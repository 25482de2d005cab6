"""Tests of the packet-size and beacon-order optimisers (Figure 8)."""

import pytest

from repro.core.optimizer import BeaconOrderSelector, PacketSizeOptimizer


@pytest.fixture(scope="module")
def model(contention_table):
    from repro.core.energy_model import EnergyModel
    return EnergyModel(contention_source=contention_table)


class TestPacketSizeOptimizer:
    def test_energy_per_bit_decreases_with_payload(self, model):
        optimizer = PacketSizeOptimizer(model, path_loss_db=75.0)
        sweep = optimizer.sweep(0.42, payload_sizes=[5, 20, 60, 120])
        energies = [p.energy_per_bit_j for p in sweep.points]
        assert energies[0] > energies[-1]
        assert sweep.is_monotonically_decreasing(tolerance=0.05)

    def test_optimum_at_maximum_payload(self, model):
        # Figure 8's headline finding.
        optimizer = PacketSizeOptimizer(model, path_loss_db=75.0)
        sweep = optimizer.sweep(0.42, payload_sizes=[10, 40, 80, 120, 123])
        assert sweep.optimal_payload_bytes >= 120

    def test_holds_across_loads(self, model):
        optimizer = PacketSizeOptimizer(model, path_loss_db=75.0)
        for load in (0.2, 0.6):
            sweep = optimizer.sweep(load, [10, 60, 120])
            assert sweep.optimal_payload_bytes == 120

    def test_small_packets_pay_large_overhead(self, model):
        optimizer = PacketSizeOptimizer(model, path_loss_db=70.0)
        sweep = optimizer.sweep(0.42, payload_sizes=[5, 120])
        ratio = sweep.points[0].energy_per_bit_j / sweep.points[1].energy_per_bit_j
        # 5 useful bytes carry 13 bytes of overhead plus the fixed beacon /
        # contention / ack cost: well over 5x worse per bit.
        assert ratio > 4.0

    def test_invalid_payload_rejected(self, model):
        optimizer = PacketSizeOptimizer(model)
        with pytest.raises(ValueError):
            optimizer.sweep(0.42, payload_sizes=[0, 10])

    def test_monotonicity_helper_detects_increase(self, model):
        optimizer = PacketSizeOptimizer(model, path_loss_db=75.0)
        sweep = optimizer.sweep(0.42, payload_sizes=[20, 120])
        sweep.points = list(reversed(sweep.points))
        assert not sweep.is_monotonically_decreasing(tolerance=0.01)


class TestBeaconOrderSelector:
    def test_paper_configuration_selects_bo6(self, model):
        # 120-byte packets at 1 kbit/s accumulate every 960 ms; the smallest
        # inter-beacon period above that is 983 ms = BO 6.
        selector = BeaconOrderSelector(model, nodes_per_channel=100)
        choice = selector.select(payload_bytes=120, node_data_rate_bps=1000.0)
        assert choice.beacon_order == 6
        assert choice.inter_beacon_period_s == pytest.approx(0.98304)
        assert choice.channel_load == pytest.approx(0.42, abs=0.03)

    def test_smaller_packets_select_smaller_order(self, model):
        selector = BeaconOrderSelector(model, nodes_per_channel=100)
        choice = selector.select(payload_bytes=30, node_data_rate_bps=1000.0)
        assert choice.beacon_order < 6

    def test_accumulation_period(self, model):
        selector = BeaconOrderSelector(model)
        assert selector.accumulation_period_s(120, 1000.0) == pytest.approx(0.96)

    def test_invalid_rate_rejected(self, model):
        selector = BeaconOrderSelector(model)
        with pytest.raises(ValueError):
            selector.accumulation_period_s(120, 0.0)
