"""Unit tests of channel allocation across the sixteen 2450 MHz channels."""

from collections import Counter

import pytest

from repro.network.channel_allocation import ChannelAllocator


class TestChannelAllocator:
    def test_round_robin_balances_1600_nodes(self):
        assignment = ChannelAllocator().allocate_round_robin(range(1, 1601))
        populations = Counter(assignment.values())
        assert len(populations) == 16
        assert set(populations.values()) == {100}

    def test_round_robin_wraps_channels(self):
        allocator = ChannelAllocator(channels=[11, 12])
        assignment = allocator.allocate_round_robin([1, 2, 3, 4])
        assert assignment == {1: 11, 2: 12, 3: 11, 4: 12}

    @pytest.mark.parametrize("nodes, channels", [(1, 16), (17, 16),
                                                 (100, 3), (1601, 16)])
    def test_round_robin_assigns_every_node_within_one_of_balance(
            self, nodes, channels):
        allocator = ChannelAllocator(channels=list(range(11, 11 + channels)))
        assignment = allocator.allocate_round_robin(range(nodes))
        assert sorted(assignment) == list(range(nodes))
        populations = Counter(assignment.values())
        assert set(populations) <= set(allocator.channels)
        assert len(populations) == min(nodes, channels)
        assert max(populations.values()) - min(populations.values()) <= 1

    def test_requires_at_least_one_channel(self):
        with pytest.raises(ValueError):
            ChannelAllocator(channels=[])
