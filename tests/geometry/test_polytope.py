"""Tests for the exact range's from-scratch geometry.

:class:`~repro.geometry.range.ExactRange` built by
:meth:`~repro.geometry.range.ExactRange.from_halfspaces` holds the
H-representation of the utility range and enumerates its vertices from
scratch on first access: these tests cover that path (enumeration,
pruning, membership, Chebyshev centre, sampling) and the private
enumerators behind it.
"""

from __future__ import annotations

import math
import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from repro.errors import EmptyRegionError, PersistenceError
from repro.geometry import lp, simplex
from repro.geometry import range as geometry_range
from repro.geometry.hyperplane import preference_halfspace
from repro.geometry.range import PRUNE_ABOVE, AmbientRange, ExactRange


def random_halfspaces(d: int, count: int, seed: int):
    """Deterministic random preference half-spaces in dimension d."""
    rng = np.random.default_rng(seed)
    spaces = []
    for _ in range(count):
        a, b = rng.uniform(0.01, 1.0, size=(2, d))
        if not np.allclose(a, b):
            spaces.append(preference_halfspace(a, b))
    return spaces


def narrowed(d: int, spaces) -> ExactRange | None:
    """The range cut by ``spaces``, or ``None`` if they are inconsistent."""
    try:
        return ExactRange.from_halfspaces(d, spaces)
    except EmptyRegionError:
        return None


def system(urange: ExactRange) -> tuple[np.ndarray, np.ndarray]:
    """The range's reduced H-representation ``(A, b)``."""
    state = urange.get_state()
    return state["a"], state["b"]


def empty_system() -> tuple[np.ndarray, np.ndarray]:
    """A 2-d H-system with no point: ``u1 >= u2`` and ``u2 >= 1.5 u1``."""
    a, b = simplex.simplex_constraints(2)
    for halfspace in (
        preference_halfspace(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        preference_halfspace(np.array([0.0, 1.0]), np.array([1.5, 0.0])),
    ):
        a, b = geometry_range._with_row(a, b, halfspace)
    return a, b


def hull_volume(urange: ExactRange) -> float:
    """Convex-hull volume of the range's vertices, reduced coordinates."""
    reduced = urange.vertices()[:, :-1]
    k = urange.dimension - 1
    if reduced.shape[0] <= k:
        return 0.0
    if k == 1:
        return float(reduced.max() - reduced.min())
    try:
        return float(ConvexHull(reduced).volume)
    except QhullError:
        return 0.0


class TestSimplexPolytope:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_vertices_are_unit_vectors(self, d):
        vertices = ExactRange(d).vertices()
        assert vertices.shape == (d, d)
        # Every vertex is a unit vector and every unit vector appears.
        for vertex in vertices:
            assert np.isclose(vertex.max(), 1.0, atol=1e-9)
            assert np.isclose(np.abs(vertex).sum(), 1.0, atol=1e-9)
        assert np.isclose(np.abs(vertices.sum(axis=0) - 1.0).max(), 0.0, atol=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_vertex_rows_sum_to_one(self, d):
        vertices = ExactRange(d).vertices()
        np.testing.assert_allclose(vertices.sum(axis=1), np.ones(d), atol=1e-9)

    def test_not_empty(self):
        urange = ExactRange.from_halfspaces(3, [])
        assert urange.chebyshev_center()[1] > 0

    def test_contains_centroid(self):
        urange = ExactRange(4)
        assert urange.contains(np.full(4, 0.25))

    def test_rejects_off_simplex_point(self):
        urange = ExactRange(3)
        assert not urange.contains(np.array([0.5, 0.5, 0.5]))

    def test_chebyshev_center_inside(self):
        urange = ExactRange(4)
        center, radius = urange.chebyshev_center()
        assert urange.contains(center)
        assert radius > 0

    def test_bounding_box_is_unit(self):
        vertices = ExactRange(3).vertices()
        np.testing.assert_allclose(vertices.min(axis=0), np.zeros(3), atol=1e-8)
        np.testing.assert_allclose(vertices.max(axis=0), np.ones(3), atol=1e-8)

    def test_repr_mentions_counts(self):
        text = repr(ExactRange(3))
        assert "d=3" in text


class TestIntersection:
    def test_with_halfspace_narrows(self):
        urange = ExactRange(3)
        rows = system(urange)[0].shape[0]
        h = preference_halfspace(np.array([0.9, 0.1, 0.1]), np.array([0.1, 0.9, 0.1]))
        assert urange.update(h)
        assert system(urange)[0].shape[0] == rows + 1
        # Every remaining vertex satisfies the half-space.
        for vertex in urange.vertices():
            assert h.contains(vertex, tol=1e-7)

    def test_intersection_preserves_halfspace_provenance(self):
        spaces = random_halfspaces(3, 3, seed=1)
        urange = ExactRange.from_halfspaces(3, spaces)
        assert urange.halfspaces == tuple(spaces)

    def test_dimension_mismatch_raises(self):
        h = preference_halfspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            ExactRange.from_halfspaces(3, [h])

    def test_contradictory_halfspaces_empty(self):
        h = preference_halfspace(
            np.array([0.9, 0.1, 0.1]), np.array([0.1, 0.9, 0.1])
        )
        # Strictly shifted opposite: eliminates the shared boundary too.
        g = preference_halfspace(
            np.array([0.05, 0.95, 0.1]), np.array([0.9, 0.1, 0.1])
        )
        urange = narrowed(3, [h, g])
        # The two constraints conflict over most of the simplex; if the
        # result is non-empty its Chebyshev radius must be tiny.
        if urange is not None:
            _, radius = urange.chebyshev_center()
            assert radius < 0.2

    def test_vertices_of_empty_raise(self):
        a, b = empty_system()
        with pytest.raises(EmptyRegionError):
            geometry_range._raw_vertices(a, b, None)
        # The 1-d interval enumeration finds the empty interval itself.
        with pytest.raises(EmptyRegionError):
            geometry_range._interval_vertices(a, b)


class TestVertexEnumeration:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_vertices_inside_polytope(self, d, seed):
        urange = narrowed(d, random_halfspaces(d, 3, seed=seed))
        if urange is None:
            return
        for vertex in urange.vertices():
            assert urange.contains(vertex, tol=1e-6)

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_qhull_and_combinatorial_agree(self, seed):
        urange = narrowed(4, random_halfspaces(4, 2, seed=seed))
        if urange is None:
            return
        a, b = system(urange)
        center = lp.chebyshev_center(a, b)
        qhull = geometry_range._qhull_vertices(a, b, center)
        if qhull is None:
            return
        combo = geometry_range._combinatorial_vertices(a, b, center)
        qhull = np.unique(np.round(qhull, 8), axis=0)
        combo = np.unique(np.round(combo, 8), axis=0)
        assert qhull.shape == combo.shape
        q_sorted = qhull[np.lexsort(qhull.T)]
        c_sorted = combo[np.lexsort(combo.T)]
        np.testing.assert_allclose(q_sorted, c_sorted, atol=1e-6)

    def test_d2_interval_vertices(self):
        urange = ExactRange.from_halfspaces(2, [
            preference_halfspace(np.array([0.9, 0.2]), np.array([0.2, 0.9]))
        ])
        vertices = urange.vertices()
        assert vertices.shape[1] == 2
        assert 1 <= vertices.shape[0] <= 2

    def test_vertices_cached_and_copied(self):
        urange = ExactRange(3)
        first = urange.vertices()
        first[0, 0] = 42.0
        second = urange.vertices()
        assert second[0, 0] != 42.0


class TestPruning:
    def test_pruned_removes_redundant(self):
        h = preference_halfspace(np.array([0.9, 0.1, 0.1]), np.array([0.1, 0.9, 0.1]))
        # Adding the same half-space twice: the duplicate is redundant.
        a, b = system(ExactRange.from_halfspaces(3, [h, h]))
        pruned, _ = geometry_range._prune(a, b)
        assert pruned.shape[0] < a.shape[0]

    def test_pruned_preserves_geometry(self, rng):
        urange = narrowed(4, random_halfspaces(4, 5, seed=11))
        if urange is None:
            return
        a, b = system(urange)
        pruned_a, pruned_b = geometry_range._prune(a, b)
        pruned = ExactRange(4)
        pruned.set_state({**urange.get_state(), "a": pruned_a, "b": pruned_b})
        for point in urange.sample(50, rng=rng):
            assert pruned.contains(point, tol=1e-6)
        v1 = urange.vertices()
        v2 = pruned.vertices()
        assert v1.shape == v2.shape

    def test_pruned_empty_is_noop(self):
        # Pruning past PRUNE_ABOVE rows needs a non-empty body: a system
        # the Chebyshev LP finds empty is committed as it is.
        a, b = empty_system()
        a = np.vstack([a] * (PRUNE_ABOVE // a.shape[0] + 1))
        b = np.tile(b, PRUNE_ABOVE // b.shape[0] + 1)
        urange = ExactRange(2)
        urange._commit(a, b, (), np.zeros((1, 1)))
        assert system(urange)[0].shape == a.shape
        with pytest.raises(EmptyRegionError):
            urange.chebyshev_center()


class TestSampling:
    @given(st.integers(min_value=0, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_samples_inside(self, seed):
        urange = narrowed(4, random_halfspaces(4, 2, seed=seed))
        if urange is None:
            return
        samples = urange.sample(30, rng=seed)
        assert samples.shape == (30, 4)
        for point in samples:
            assert urange.contains(point, tol=1e-6)

    def test_sample_zero(self):
        samples = ExactRange(3).sample(0, rng=0)
        assert samples.shape == (0, 3)

    def test_sample_empty_raises(self):
        a, b = empty_system()
        urange = ExactRange(2)
        urange.set_state({**urange.get_state(), "a": a, "b": b})
        with pytest.raises(EmptyRegionError):
            urange.sample(5, rng=0)


class TestBoundingBox:
    """The LP outer rectangle of :class:`AmbientRange` against the exact
    vertex set of the same answers."""

    @pytest.mark.parametrize("seed", [2, 7])
    def test_box_contains_all_vertices(self, seed):
        spaces = random_halfspaces(4, 3, seed=seed)
        urange = narrowed(4, spaces)
        if urange is None:
            return
        ambient = AmbientRange(4)
        for halfspace in spaces:
            assert ambient.update(halfspace)
        e_min, e_max = ambient.bounds()
        for vertex in urange.vertices():
            assert np.all(vertex >= e_min - 1e-6)
            assert np.all(vertex <= e_max + 1e-6)

    def test_box_tight_on_vertices(self):
        e_min, e_max = AmbientRange(3).bounds()
        vertices = ExactRange(3).vertices()
        np.testing.assert_allclose(vertices.min(axis=0), e_min, atol=1e-7)
        np.testing.assert_allclose(vertices.max(axis=0), e_max, atol=1e-7)


class TestValidation:
    def test_bad_matrix_shape(self):
        with pytest.raises(ValueError):
            ExactRange(3).contains(np.full((2, 3), 1 / 3))

    def test_bad_vector_length(self):
        with pytest.raises(ValueError):
            ExactRange(3).contains(np.full(4, 0.25))

    def test_malformed_state_rejected(self):
        state = ExactRange(3).get_state()
        with pytest.raises(PersistenceError):
            ExactRange(3).set_state({**state, "b": state["b"][:-1]})
        with pytest.raises(PersistenceError):
            ExactRange(3).set_state({**state, "a": state["a"][:, :1]})
        with pytest.raises(PersistenceError):
            ExactRange(3).set_state({**state, "b": state["b"][:, None]})


class TestVolume:
    """Convex-hull volumes of the enumerated vertex sets."""

    def test_simplex_volume(self):
        for d in (2, 3, 4, 5):
            expected = 1.0 / math.factorial(d - 1)
            assert abs(hull_volume(ExactRange(d)) - expected) < 1e-9

    def test_halfspace_splits_volume(self):
        h = preference_halfspace(
            np.array([0.9, 0.1, 0.5]), np.array([0.1, 0.9, 0.5])
        )
        positive = ExactRange.from_halfspaces(3, [h])
        negative = ExactRange.from_halfspaces(3, [h.flipped()])
        total = hull_volume(positive) + hull_volume(negative)
        assert abs(total - hull_volume(ExactRange(3))) < 1e-9

    def test_volume_shrinks_under_intersection(self, rng):
        urange = ExactRange(4)
        previous = hull_volume(urange)
        for seed in range(3):
            spaces = random_halfspaces(4, 1, seed=seed)
            if not spaces or not urange.update(spaces[0]):
                continue
            current = hull_volume(urange)
            assert current <= previous + 1e-9
            previous = current

    def test_flat_range_zero_volume(self):
        h = preference_halfspace(np.array([0.6, 0.4]), np.array([0.4, 0.6]))
        flat = narrowed(2, [h, h.flipped()])
        if flat is not None:
            assert hull_volume(flat) <= 1e-9


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
        original = geometry_range._qhull_vertices

        def blocking(*args):
            entered.set()
            release.wait(timeout=30)
            return original(*args)

        def child():
            geometry_range._qhull_vertices = original
            assert ExactRange(3).vertices().shape == (3, 3)

        monkeypatch.setattr(geometry_range, "_qhull_vertices", blocking)
        busy = threading.Thread(target=ExactRange(3).vertices)
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
