"""Tests for the utility-range polytope."""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptyRegionError
from repro.geometry.hyperplane import preference_halfspace
from repro.geometry.polytope import UtilityPolytope


def random_halfspaces(d: int, count: int, seed: int):
    """Deterministic random preference half-spaces in dimension d."""
    rng = np.random.default_rng(seed)
    spaces = []
    for _ in range(count):
        a, b = rng.uniform(0.01, 1.0, size=(2, d))
        if not np.allclose(a, b):
            spaces.append(preference_halfspace(a, b))
    return spaces


class TestSimplexPolytope:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_vertices_are_unit_vectors(self, d):
        vertices = UtilityPolytope.simplex(d).vertices()
        assert vertices.shape == (d, d)
        # Every vertex is a unit vector and every unit vector appears.
        for vertex in vertices:
            assert np.isclose(vertex.max(), 1.0, atol=1e-9)
            assert np.isclose(np.abs(vertex).sum(), 1.0, atol=1e-9)
        assert np.isclose(np.abs(vertices.sum(axis=0) - 1.0).max(), 0.0, atol=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_vertex_rows_sum_to_one(self, d):
        vertices = UtilityPolytope.simplex(d).vertices()
        np.testing.assert_allclose(vertices.sum(axis=1), np.ones(d), atol=1e-9)

    def test_not_empty(self):
        assert not UtilityPolytope.simplex(3).is_empty()

    def test_contains_centroid(self):
        poly = UtilityPolytope.simplex(4)
        assert poly.contains(np.full(4, 0.25))

    def test_rejects_off_simplex_point(self):
        poly = UtilityPolytope.simplex(3)
        assert not poly.contains(np.array([0.5, 0.5, 0.5]))

    def test_chebyshev_center_inside(self):
        poly = UtilityPolytope.simplex(4)
        center, radius = poly.chebyshev_center()
        assert poly.contains(center)
        assert radius > 0

    def test_bounding_box_is_unit(self):
        e_min, e_max = UtilityPolytope.simplex(3).bounding_box()
        np.testing.assert_allclose(e_min, np.zeros(3), atol=1e-8)
        np.testing.assert_allclose(e_max, np.ones(3), atol=1e-8)

    def test_repr_mentions_counts(self):
        text = repr(UtilityPolytope.simplex(3))
        assert "d=3" in text


class TestIntersection:
    def test_with_halfspace_narrows(self):
        poly = UtilityPolytope.simplex(3)
        h = preference_halfspace(np.array([0.9, 0.1, 0.1]), np.array([0.1, 0.9, 0.1]))
        narrowed = poly.with_halfspace(h)
        assert narrowed.n_constraints == poly.n_constraints + 1
        # Every remaining vertex satisfies the half-space.
        for vertex in narrowed.vertices():
            assert h.contains(vertex, tol=1e-7)

    def test_intersection_preserves_halfspace_provenance(self):
        poly = UtilityPolytope.simplex(3)
        spaces = random_halfspaces(3, 3, seed=1)
        narrowed = poly.with_halfspaces(spaces)
        assert narrowed.halfspaces == tuple(spaces)

    def test_dimension_mismatch_raises(self):
        poly = UtilityPolytope.simplex(3)
        h = preference_halfspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            poly.with_halfspace(h)

    def test_contradictory_halfspaces_empty(self):
        poly = UtilityPolytope.simplex(3)
        h = preference_halfspace(
            np.array([0.9, 0.1, 0.1]), np.array([0.1, 0.9, 0.1])
        )
        # Strictly shifted opposite: eliminates the shared boundary too.
        g = preference_halfspace(
            np.array([0.05, 0.95, 0.1]), np.array([0.9, 0.1, 0.1])
        )
        narrowed = poly.with_halfspace(h).with_halfspace(g)
        # The two constraints conflict over most of the simplex; if the
        # result is non-empty its Chebyshev radius must be tiny.
        if not narrowed.is_empty():
            _, radius = narrowed.chebyshev_center()
            assert radius < 0.2

    def test_vertices_of_empty_raise(self):
        poly = UtilityPolytope.simplex(2)
        h = preference_halfspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        g = preference_halfspace(np.array([0.0, 1.1]), np.array([1.0, 0.0]))
        narrowed = poly.with_halfspace(h).with_halfspace(g)
        if narrowed.is_empty():
            with pytest.raises(EmptyRegionError):
                narrowed.vertices()


class TestVertexEnumeration:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_vertices_inside_polytope(self, d, seed):
        poly = UtilityPolytope.simplex(d).with_halfspaces(
            random_halfspaces(d, 3, seed=seed)
        )
        if poly.is_empty():
            return
        for vertex in poly.vertices():
            assert poly.contains(vertex, tol=1e-6)

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_qhull_and_combinatorial_agree(self, seed):
        poly = UtilityPolytope.simplex(4).with_halfspaces(
            random_halfspaces(4, 2, seed=seed)
        )
        if poly.is_empty():
            return
        qhull = poly._vertices_qhull()
        combo = poly._vertices_combinatorial()
        if qhull is None:
            return
        assert qhull.shape == combo.shape
        q_sorted = qhull[np.lexsort(qhull.T)]
        c_sorted = combo[np.lexsort(combo.T)]
        np.testing.assert_allclose(q_sorted, c_sorted, atol=1e-6)

    def test_d2_interval_vertices(self):
        poly = UtilityPolytope.simplex(2).with_halfspace(
            preference_halfspace(np.array([0.9, 0.2]), np.array([0.2, 0.9]))
        )
        vertices = poly.vertices()
        assert vertices.shape[1] == 2
        assert 1 <= vertices.shape[0] <= 2

    def test_vertices_cached_and_copied(self):
        poly = UtilityPolytope.simplex(3)
        first = poly.vertices()
        first[0, 0] = 42.0
        second = poly.vertices()
        assert second[0, 0] != 42.0


class TestPruning:
    def test_pruned_removes_redundant(self):
        poly = UtilityPolytope.simplex(3)
        h = preference_halfspace(np.array([0.9, 0.1, 0.1]), np.array([0.1, 0.9, 0.1]))
        # Adding the same half-space twice: the duplicate is redundant.
        narrowed = poly.with_halfspace(h).with_halfspace(h)
        pruned = narrowed.pruned()
        assert pruned.n_constraints < narrowed.n_constraints

    def test_pruned_preserves_geometry(self, rng):
        poly = UtilityPolytope.simplex(4).with_halfspaces(
            random_halfspaces(4, 5, seed=11)
        )
        if poly.is_empty():
            return
        pruned = poly.pruned()
        for point in poly.sample(50, rng=rng):
            assert pruned.contains(point, tol=1e-6)
        v1 = poly.vertices()
        v2 = pruned.vertices()
        assert v1.shape == v2.shape

    def test_pruned_empty_is_noop(self):
        poly = UtilityPolytope.simplex(2)
        h = preference_halfspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        g = preference_halfspace(np.array([0.0, 1.5]), np.array([1.0, 0.0]))
        narrowed = poly.with_halfspace(h).with_halfspace(g)
        if narrowed.is_empty():
            assert narrowed.pruned() is narrowed


class TestSampling:
    @given(st.integers(min_value=0, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_samples_inside(self, seed):
        poly = UtilityPolytope.simplex(4).with_halfspaces(
            random_halfspaces(4, 2, seed=seed)
        )
        if poly.is_empty():
            return
        samples = poly.sample(30, rng=seed)
        assert samples.shape == (30, 4)
        for point in samples:
            assert poly.contains(point, tol=1e-6)

    def test_sample_zero(self):
        samples = UtilityPolytope.simplex(3).sample(0, rng=0)
        assert samples.shape == (0, 3)

    def test_sample_empty_raises(self):
        poly = UtilityPolytope.simplex(2)
        h = preference_halfspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        g = preference_halfspace(np.array([0.0, 1.5]), np.array([1.0, 0.0]))
        narrowed = poly.with_halfspace(h).with_halfspace(g)
        if narrowed.is_empty():
            with pytest.raises(EmptyRegionError):
                narrowed.sample(5, rng=0)


class TestBoundingBox:
    @pytest.mark.parametrize("seed", [2, 7])
    def test_box_contains_all_vertices(self, seed):
        poly = UtilityPolytope.simplex(4).with_halfspaces(
            random_halfspaces(4, 3, seed=seed)
        )
        if poly.is_empty():
            return
        e_min, e_max = poly.bounding_box()
        for vertex in poly.vertices():
            assert np.all(vertex >= e_min - 1e-6)
            assert np.all(vertex <= e_max + 1e-6)

    def test_box_tight_on_vertices(self):
        poly = UtilityPolytope.simplex(3)
        e_min, e_max = poly.bounding_box()
        vertices = poly.vertices()
        np.testing.assert_allclose(vertices.min(axis=0), e_min, atol=1e-7)
        np.testing.assert_allclose(vertices.max(axis=0), e_max, atol=1e-7)


class TestValidation:
    def test_bad_matrix_shape(self):
        with pytest.raises(ValueError):
            UtilityPolytope(np.zeros((2, 3)), np.zeros(2), dimension=3)

    def test_bad_vector_length(self):
        with pytest.raises(ValueError):
            UtilityPolytope(np.zeros((2, 2)), np.zeros(3), dimension=3)


class TestVolume:
    def test_simplex_volume(self):
        import math

        for d in (2, 3, 4, 5):
            poly = UtilityPolytope.simplex(d)
            expected = 1.0 / math.factorial(d - 1)
            assert abs(poly.volume() - expected) < 1e-9
            assert abs(poly.volume_fraction() - 1.0) < 1e-9

    def test_halfspace_splits_volume(self):
        poly = UtilityPolytope.simplex(3)
        h = preference_halfspace(
            np.array([0.9, 0.1, 0.5]), np.array([0.1, 0.9, 0.5])
        )
        positive = poly.with_halfspace(h)
        negative = poly.with_halfspace(h.flipped())
        total = positive.volume() + negative.volume()
        assert abs(total - poly.volume()) < 1e-9

    def test_volume_shrinks_under_intersection(self, rng):
        poly = UtilityPolytope.simplex(4)
        previous = poly.volume()
        for seed in range(3):
            spaces = random_halfspaces(4, 1, seed=seed)
            if not spaces:
                continue
            narrowed = poly.with_halfspace(spaces[0])
            if narrowed.is_empty():
                continue
            current = narrowed.volume()
            assert current <= previous + 1e-9
            poly, previous = narrowed, current

    def test_flat_range_zero_volume(self):
        poly = UtilityPolytope.simplex(2)
        h = preference_halfspace(np.array([0.6, 0.4]), np.array([0.4, 0.6]))
        flat = poly.with_halfspace(h).with_halfspace(h.flipped())
        if not flat.is_empty():
            assert flat.volume() <= 1e-9


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
class TestForkSafety:
    def test_child_forked_mid_enumeration_enumerates(self, monkeypatch):
        # The HTTP service's collector thread forks dispatcher workers
        # while its event-loop thread may be enumerating an interactive
        # session's vertices; the child must not inherit a held lock.
        entered, release = threading.Event(), threading.Event()
        original = UtilityPolytope._vertices_qhull_raw

        def blocking(self):
            entered.set()
            release.wait(timeout=30)
            return original(self)

        def child():
            UtilityPolytope._vertices_qhull_raw = original
            assert UtilityPolytope.simplex(3).vertices().shape == (3, 3)

        monkeypatch.setattr(UtilityPolytope, "_vertices_qhull_raw", blocking)
        busy = threading.Thread(target=UtilityPolytope.simplex(3).vertices)
        busy.start()
        try:
            assert entered.wait(timeout=10)
            process = multiprocessing.get_context("fork").Process(
                target=child
            )
            process.start()
            process.join(timeout=20)
            hung = process.is_alive()
            if hung:
                process.kill()
                process.join(timeout=5)
        finally:
            release.set()
            busy.join(timeout=10)
        assert not busy.is_alive()
        assert not hung
        assert process.exitcode == 0
