"""Tests for utility arithmetic and the regret ratio."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.vectors import (
    regret_ratio,
    regret_ratios,
    top_point_index,
    utilities,
)


def datasets(d: int):
    return st.lists(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=d, max_size=d),
        min_size=2,
        max_size=10,
    ).map(np.array)


def simplex_vectors(d: int):
    return st.lists(
        st.floats(min_value=0.001, max_value=1.0), min_size=d, max_size=d
    ).map(lambda xs: np.array(xs) / np.sum(xs))


class TestUtilities:
    def test_paper_example(self):
        """Example 1 of the paper: f_u(p_3) = 0.71 for u = (0.3, 0.7)."""
        points = np.array([[0.5, 0.8]])
        value = utilities(points, np.array([0.3, 0.7]))
        assert value[0] == pytest.approx(0.71)

    def test_top_point_index_paper_example(self):
        from repro.data import toy_database

        toy = toy_database()
        assert top_point_index(toy.points, np.array([0.3, 0.7])) == 2

    def test_batch_top_points(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0]])
        us = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert [top_point_index(points, u) for u in us] == [0, 1]


class TestRegretRatio:
    def test_paper_example2(self):
        """Example 2: regratio(p_2, u) = (0.71 - 0.58) / 0.71 ~ 0.18."""
        points = np.array([[0.0, 1.0], [0.3, 0.7], [0.5, 0.8], [0.7, 0.4], [1.0, 0.0]])
        u = np.array([0.3, 0.7])
        value = regret_ratio(points, points[1], u)
        assert value == pytest.approx((0.71 - 0.58) / 0.71, abs=1e-9)

    @given(datasets(3), simplex_vectors(3))
    @settings(max_examples=80, deadline=None)
    def test_in_unit_interval(self, points, u):
        for q in points:
            value = regret_ratio(points, q, u)
            assert -1e-12 <= value <= 1.0 + 1e-12

    @given(datasets(3), simplex_vectors(3))
    @settings(max_examples=50, deadline=None)
    def test_best_point_has_zero_regret(self, points, u):
        best = points[top_point_index(points, u)]
        assert regret_ratio(points, best, u) == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_best_rejected(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            regret_ratio(points, points[0], np.array([0.5, 0.5]))

    @given(datasets(4))
    @settings(max_examples=30, deadline=None)
    def test_batch_matches_scalar(self, points):
        us = np.array([[0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]])
        q = points[0]
        batch = regret_ratios(points, q, us)
        for row, u in enumerate(us):
            assert batch[row] == pytest.approx(regret_ratio(points, q, u))
