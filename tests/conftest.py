"""Shared fixtures of the test suite.

Expensive objects (the Monte-Carlo contention table, the default energy
model, case-study results) are built once per session so the several hundred
tests stay fast.  ``polled_lane`` serves the scalar traffic reference the
arrival schedules are checked against.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.contention.tables import ContentionTable, build_contention_table
from repro.core.case_study import CaseStudy
from repro.core.energy_model import EnergyModel


@pytest.fixture(scope="session")
def contention_table() -> ContentionTable:
    """A small but representative Monte-Carlo characterisation table."""
    return build_contention_table(
        loads=[0.1, 0.3, 0.42, 0.6, 0.9],
        packet_sizes=[23, 63, 133],
        num_windows=8,
        seed=123,
        num_nodes=100,
    )


@pytest.fixture(scope="session")
def energy_model(contention_table) -> EnergyModel:
    """Energy model with the paper's defaults and the session table."""
    return EnergyModel(contention_source=contention_table)


@pytest.fixture(scope="session")
def case_study_result(energy_model):
    """The Section 5 case study evaluated once for the whole session."""
    study = CaseStudy(model=energy_model, path_loss_resolution=21)
    return study.run()


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(987)


class _Feed:
    """One packet process, polled: a byte buffer filled one arrival (one
    variate draw) at a time up to each poll instant, ``lag_s`` behind it.

    A periodic feed starts primed with one payload; a saturated feed
    always holds a packet.
    """

    def __init__(self, model, rng, lag_s=0.0):
        self.model = model
        self.rng = rng
        self.lag_s = lag_s
        self.payload = model.payload_bytes
        self.buffered = self.payload if model.kind == "periodic" else 0
        self.samples = 0
        self.next_arrival = None

    def _draw(self, previous_s):
        model = self.model
        if model.kind == "poisson":
            return previous_s + float(self.rng.exponential(
                model.mean_interval_s)), 1
        gap = float(self.rng.exponential(model.mean_event_interval_s))
        burst = int(self.rng.geometric(1.0 / model.mean_burst_packets))
        return previous_s + gap, burst

    def advance(self, now_s):
        now_s = max(0.0, now_s - self.lag_s)
        model = self.model
        if model.kind == "periodic":
            samples = math.floor(now_s / model.sampling_interval_s + 1e-9)
            self.buffered += (samples - self.samples) * model.sample_bytes
            self.samples = samples
        elif model.kind in ("poisson", "bursty"):
            if self.next_arrival is None:
                self.next_arrival = self._draw(0.0)
            while self.next_arrival[0] <= now_s:
                self.buffered += self.next_arrival[1] * self.payload
                self.next_arrival = self._draw(self.next_arrival[0])

    def ready(self):
        return self.model.kind == "saturated" \
            or self.buffered >= self.payload

    def drain(self):
        if self.model.kind != "saturated":
            self.buffered -= self.payload


def _polled_lane(model, node_ids, streams, tree=None, hop_lag_s=0.0):
    """One ``poll(now_s) -> bool`` per node of ``node_ids``.

    A node owns its ``traffic[<id>]`` feed of ``streams``; a relay of
    ``tree`` also owns a replica of each descendant's feed, lagged
    ``hops-between x hop_lag_s``.  A poll advances every feed to
    ``now_s`` and, when some feed holds a full payload, drains one —
    the relay's own first, then its descendants' in ascending id order —
    and reports whether it did.
    """
    population = len(node_ids)
    index_of = {node_id: i for i, node_id in enumerate(node_ids)}
    polls = []
    for i, node_id in enumerate(node_ids):
        feeds = [_Feed(model.resolve(i, population),
                       streams.get(f"traffic[{node_id}]"))]
        for descendant in (tree.descendants(node_id) if tree else ()):
            feeds.append(_Feed(
                model.resolve(index_of[descendant], population),
                streams.replica(f"traffic[{descendant}]"),
                (tree.depth[descendant] - tree.depth[node_id]) * hop_lag_s))

        def poll(now_s, feeds=feeds):
            for feed in feeds:
                feed.advance(now_s)
            for feed in feeds:
                if feed.ready():
                    feed.drain()
                    return True
            return False

        polls.append(poll)
    return polls


@pytest.fixture(scope="session")
def polled_lane():
    """``polled_lane(model, node_ids, streams, tree=None, hop_lag_s=0.0)``:
    the scalar reference of a lane's traffic, one poll per node.

    It keeps the lazy poll / drain semantics the arrival schedules
    (:func:`repro.network.routing.lane_arrivals`) must reproduce: a byte
    buffer per feed, one variate drawn at a time, partial payloads never
    pooled across feeds.
    """
    return _polled_lane
