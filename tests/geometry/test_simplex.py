"""Tests for reduced-coordinate simplex mapping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import simplex


def simplex_points(d: int):
    """Hypothesis strategy: valid utility vectors of dimension d."""
    return (
        st.lists(
            st.floats(min_value=0.001, max_value=1.0),
            min_size=d,
            max_size=d,
        )
        .map(lambda xs: np.array(xs) / np.sum(xs))
    )


class TestReduceLift:
    def test_reduce_point_drops_last(self):
        u = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(simplex.reduce_point(u), [0.2, 0.3])

    def test_lift_point_restores_sum(self):
        x = np.array([0.2, 0.3])
        lifted = simplex.lift_point(x)
        np.testing.assert_allclose(lifted, [0.2, 0.3, 0.5])

    def test_lift_points_batch(self):
        xs = np.array([[0.1, 0.2], [0.4, 0.4]])
        lifted = simplex.lift_points(xs)
        assert lifted.shape == (2, 3)
        np.testing.assert_allclose(lifted.sum(axis=1), [1.0, 1.0])

    @given(simplex_points(4))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, u):
        restored = simplex.lift_point(simplex.reduce_point(u))
        np.testing.assert_allclose(restored, u, atol=1e-12)

    def test_reduce_point_copies(self):
        u = np.array([0.5, 0.5])
        x = simplex.reduce_point(u)
        x[0] = 99.0
        assert u[0] == 0.5


class TestReduceNormal:
    @given(
        st.lists(
            st.floats(min_value=-1, max_value=1), min_size=3, max_size=3
        ),
        simplex_points(3),
    )
    @settings(max_examples=50, deadline=None)
    def test_equivalence_of_forms(self, w, u):
        """a . x >= b holds in reduced space iff u . w >= 0 in ambient."""
        w = np.array(w)
        a, b = simplex.reduce_normal(w)
        x = simplex.reduce_point(u)
        ambient = float(u @ w)
        reduced = float(a @ x) - b
        assert ambient == pytest.approx(reduced, abs=1e-9)

    def test_rejects_scalar_dimension(self):
        with pytest.raises(ValueError):
            simplex.reduce_normal(np.array([1.0]))


class TestSimplexConstraints:
    def test_shapes(self):
        a, b = simplex.simplex_constraints(4)
        assert a.shape == (4, 3)
        assert b.shape == (4,)

    def test_unit_vectors_feasible(self):
        a, b = simplex.simplex_constraints(3)
        for vertex in np.eye(3):
            x = simplex.reduce_point(vertex)
            assert np.all(a @ x <= b + 1e-12)

    def test_centroid_strictly_feasible(self):
        a, b = simplex.simplex_constraints(5)
        x = simplex.reduce_point(np.full(5, 0.2))
        assert np.all(a @ x < b)

    def test_outside_point_infeasible(self):
        a, b = simplex.simplex_constraints(3)
        assert not np.all(a @ np.array([0.8, 0.8]) <= b)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            simplex.simplex_constraints(1)


class TestHelpers:
    def test_vertices_are_identity(self):
        # The reduced corners (unit vectors and the origin) lift to the
        # ambient corners, the unit vectors.
        corners = np.vstack([np.eye(2), np.zeros(2)])
        np.testing.assert_array_equal(simplex.lift_points(corners), np.eye(3))

    def test_centroid_sums_to_one(self):
        centroid = simplex.lift_point(np.full(6, 1.0 / 7.0))
        assert centroid.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(centroid, np.full(7, 1.0 / 7.0))

    def test_on_simplex_accepts_valid(self):
        assert simplex.on_simplex(np.array([0.25, 0.75]))

    def test_on_simplex_rejects_negative(self):
        assert not simplex.on_simplex(np.array([-0.1, 1.1]))

    def test_on_simplex_rejects_bad_sum(self):
        assert not simplex.on_simplex(np.array([0.4, 0.4]))

    def test_on_simplex_rejects_matrix(self):
        assert not simplex.on_simplex(np.eye(2))
