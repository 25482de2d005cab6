"""Shared checks of the network-layer tests.

``check_schedule`` pins a lane's arrival schedule to the scalar reference:
the packets :func:`repro.network.routing.lane_arrivals` gives each node,
run through the kernels' backlog, must give the has-packet flag that
polling the reference (the session fixture ``polled_lane``) gives at every
beacon.
"""

from __future__ import annotations

import pytest

from repro.mac.superframe import SuperframeConfig
from repro.network.routing import SinkTree, lane_arrivals
from repro.sim.random import RandomStreams

#: Four nodes under one relay chain: relay 1 forwards node 2 and node 4
#: one hop behind and node 3 two hops behind; relay 2 forwards node 3 one
#: hop behind.
ROUTED_TREE = SinkTree(parent={1: 0, 2: 1, 3: 2, 4: 1},
                       depth={1: 1, 2: 2, 3: 3, 4: 2},
                       link_loss_db={1: 70.0, 2: 71.0, 3: 72.0, 4: 73.0})

#: The lane shapes of the schedule checks, all over nodes 1-4: ``(tree,
#: lagged)``.  ``lagged`` lags each forwarded replica one beacon interval
#: per hop: unlagged replicas reach the relay when their own node gets
#: them, lagged ones one and two hops later.
LANES = {
    "star": (None, False),
    "relay-free": (SinkTree(parent={1: 0, 2: 0, 3: 0, 4: 0},
                            depth={1: 1, 2: 1, 3: 1, 4: 1},
                            link_loss_db={1: 70.0, 2: 71.0, 3: 72.0,
                                          4: 73.0}), True),
    "routed-unlagged": (ROUTED_TREE, False),
    "routed-lagged": (ROUTED_TREE, True),
}


def backlog_flags(gains) -> list:
    """The kernels' backlog over one node's per-beacon gains."""
    flags, queued = [], 0
    for new in gains:
        buffered = queued + new
        flags.append(buffered > 0)
        queued = buffered - (buffered > 0)
    return flags


@pytest.fixture(scope="session", params=sorted(LANES))
def lane_shape(request):
    """Each of :data:`LANES` by name."""
    return request.param


@pytest.fixture(scope="session")
def check_schedule(polled_lane):
    """``check(model, seed, beacon_order, superframe_order, superframes,
    lane)``: the flags of nodes 1-4 of the lane shape named ``lane`` (one
    of :data:`LANES`), checked.  Returns the reference's flags, one list
    per node.
    """
    def check(model, seed, beacon_order, superframe_order, superframes,
              lane):
        tree, lagged = LANES[lane]
        # the kernels' poll instants: k * beacon interval, whatever SO
        interval = SuperframeConfig(beacon_order=beacon_order,
                                    superframe_order=superframe_order
                                    ).beacon_interval_s
        times = [k * interval for k in range(superframes)]
        hop_lag_s = interval if lagged else 0.0
        node_ids = [1, 2, 3, 4]
        polls = polled_lane(model, node_ids, RandomStreams(seed), tree,
                            hop_lag_s)
        polled = [[poll(time_s) for time_s in times] for poll in polls]
        gains = lane_arrivals(model, node_ids, RandomStreams(seed), times,
                              tree=tree, hop_lag_s=hop_lag_s)
        assert [backlog_flags(row.tolist()) for row in gains] == polled
        return polled
    return check
