"""Shared fixtures for the test suite.

Datasets and trained agents are expensive to build, so the heavier ones
are session-scoped; tests must treat them as immutable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import synthetic_dataset, toy_database
from repro.data.utility import sample_training_utilities


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def toy():
    """The paper's 5-point, 2-attribute running example (Table III)."""
    return toy_database()


@pytest.fixture(scope="session")
def small_anti_3d():
    """A small 3-d anti-correlated skyline dataset (session-scoped)."""
    return synthetic_dataset("anti", 600, 3, rng=101)


@pytest.fixture(scope="session")
def small_anti_4d():
    """A small 4-d anti-correlated skyline dataset (session-scoped)."""
    return synthetic_dataset("anti", 800, 4, rng=202)


@pytest.fixture(scope="session")
def highd_anti_8d():
    """A small 8-d anti-correlated skyline dataset for AA/SinglePass."""
    return synthetic_dataset("anti", 600, 8, rng=303)


@pytest.fixture(scope="session")
def test_utilities_3d():
    """Held-out utility vectors for 3-d evaluation."""
    return sample_training_utilities(3, 4, rng=404)


@pytest.fixture(scope="session")
def test_utilities_4d():
    """Held-out utility vectors for 4-d evaluation."""
    return sample_training_utilities(4, 4, rng=505)


@pytest.fixture(scope="session")
def trained_ea_3d(small_anti_3d):
    """A lightly trained EA agent on the 3-d dataset (session-scoped)."""
    from repro.core import EAConfig, train_ea

    train = sample_training_utilities(3, 15, rng=606)
    return train_ea(
        small_anti_3d,
        train,
        config=EAConfig(epsilon=0.1, n_samples=32),
        rng=707,
        updates_per_episode=3,
    )


@pytest.fixture(scope="session")
def trained_aa_3d(small_anti_3d):
    """A lightly trained AA agent on the 3-d dataset (session-scoped)."""
    from repro.core import AAConfig, train_aa

    train = sample_training_utilities(3, 15, rng=808)
    return train_aa(
        small_anti_3d,
        train,
        config=AAConfig(epsilon=0.1),
        rng=909,
        updates_per_episode=3,
    )
