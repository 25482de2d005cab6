"""Shared fixtures of the test suite.

Expensive objects (the Monte-Carlo contention table, the default energy
model, case-study results) are built once per session so the several hundred
tests stay fast.
"""

from __future__ import annotations

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
