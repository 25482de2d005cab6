"""Shared checks of the network-layer tests.

``check_schedule`` pins the batched kernel's arrival schedule to lazy
polling: for one source, :meth:`TrafficSource.packet_counts` plus the
kernel's queue recursion must give the has-packet flag that ``poll`` and
``drain_packet`` give at every beacon, the way the event kernel polls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mac.superframe import SuperframeConfig


def beacon_times(beacon_order: int, superframe_order: int,
                 superframes: int) -> list:
    """The kernels' poll instants: ``k * beacon_interval``, whatever SO."""
    interval = SuperframeConfig(beacon_order=beacon_order,
                                superframe_order=superframe_order
                                ).beacon_interval_s
    return [k * interval for k in range(superframes)]


def polled_flags(source, times) -> list:
    """Poll each instant and drain a packet when one is ready."""
    flags = []
    for time_s in times:
        ready = source.poll(time_s)
        if ready:
            source.drain_packet()
        flags.append(ready)
    return flags


def scheduled_flags(source, times) -> list:
    """The batched kernel's recursion over the source's whole schedule."""
    gained = np.diff(source.packet_counts(np.asarray(times)), prepend=0)
    flags, queued = [], 0
    for new in gained.tolist():
        buffered = queued + new
        flags.append(buffered > 0)
        queued = buffered - (buffered > 0)
    return flags


@pytest.fixture(scope="session")
def check_schedule():
    """``check(make_source, beacon_order, superframe_order, superframes)``.

    ``make_source()`` must build an identical fresh source on every call;
    one copy is polled, the other read as a schedule.  Returns the flags.
    """
    def check(make_source, beacon_order, superframe_order, superframes):
        times = beacon_times(beacon_order, superframe_order, superframes)
        polled = polled_flags(make_source(), times)
        assert scheduled_flags(make_source(), times) == polled
        return polled
    return check
