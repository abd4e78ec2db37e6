"""Tests for preference half-spaces — including Lemma 1."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.hyperplane import (
    PreferenceHalfspace,
    preference_halfspace,
)
from tests.integration.test_lemmas import epsilon_halfspace


def points(d: int):
    return st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=d, max_size=d
    ).map(np.array)


def utilities(d: int):
    return (
        st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=d, max_size=d)
        .map(lambda xs: np.array(xs) / np.sum(xs))
    )


class TestConstruction:
    def test_normal_is_difference(self):
        h = preference_halfspace(np.array([0.5, 0.8]), np.array([0.3, 0.7]))
        np.testing.assert_allclose(h.normal, [0.2, 0.1])

    def test_records_indices(self):
        h = preference_halfspace(
            np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            winner_index=3, loser_index=7,
        )
        assert (h.winner_index, h.loser_index) == (3, 7)

    def test_rejects_identical_points(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(GeometryError):
            preference_halfspace(p, p)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            preference_halfspace(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_unit_normal_has_unit_length(self):
        h = PreferenceHalfspace(np.array([3.0, 4.0]))
        assert np.linalg.norm(h.unit_normal) == pytest.approx(1.0)


class TestLemma1:
    """Lemma 1: u in h+ iff the user prefers p_i to p_j."""

    @given(points(3), points(3), utilities(3))
    @settings(max_examples=100, deadline=None)
    def test_membership_matches_preference(self, p_i, p_j, u):
        if np.allclose(p_i, p_j):
            return
        prefers_i = float(u @ p_i) >= float(u @ p_j)
        h = preference_halfspace(p_i, p_j)
        assert h.contains(u, tol=1e-9) == prefers_i or (
            abs(float(u @ (p_i - p_j))) < 1e-9
        )

    def test_flipped_swaps_membership(self):
        h = preference_halfspace(np.array([0.9, 0.1]), np.array([0.1, 0.9]))
        u = np.array([0.8, 0.2])
        assert h.contains(u)
        assert not h.flipped().contains(u, tol=-1e-9)

    def test_flipped_swaps_indices(self):
        h = preference_halfspace(
            np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            winner_index=1, loser_index=2,
        )
        flipped = h.flipped()
        assert (flipped.winner_index, flipped.loser_index) == (2, 1)


class TestSignedDistance:
    """``u . unit_normal``: the signed distance to the boundary plane."""

    def test_positive_inside(self):
        h = preference_halfspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert float(np.array([1.0, 0.0]) @ h.unit_normal) > 0

    def test_zero_on_boundary(self):
        h = preference_halfspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        distance = float(np.array([0.5, 0.5]) @ h.unit_normal)
        assert distance == pytest.approx(0.0)

    @given(points(4), points(4), utilities(4))
    @settings(max_examples=50, deadline=None)
    def test_distance_sign_matches_contains(self, p_i, p_j, u):
        if np.allclose(p_i, p_j):
            return
        h = preference_halfspace(p_i, p_j)
        assert (float(u @ h.unit_normal) >= -1e-12) == h.contains(u)


class TestReducedForm:
    @given(points(3), points(3), utilities(3))
    @settings(max_examples=50, deadline=None)
    def test_reduced_agrees_with_ambient(self, p_i, p_j, u):
        if np.allclose(p_i, p_j):
            return
        h = preference_halfspace(p_i, p_j)
        a, b = h.reduced()
        x = u[:-1]
        assert (float(a @ x) - b) == pytest.approx(float(u @ h.normal), abs=1e-9)


class TestEpsilonHalfspace:
    def test_contains_vectors_where_best_nearly_wins(self):
        best = np.array([0.8, 0.5])
        other = np.array([0.5, 0.9])
        h = epsilon_halfspace(best, other, epsilon=0.2)
        # For u where best's utility >= 0.8 * other's utility.
        u = np.array([0.7, 0.3])
        lhs = float(u @ best)
        rhs = 0.8 * float(u @ other)
        assert h.contains(u) == (lhs >= rhs)
