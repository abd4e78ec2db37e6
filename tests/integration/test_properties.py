"""Cross-cutting property-based tests (hypothesis).

These capture invariants that span modules: order-independence of
intersections, monotonicity of the terminal test in epsilon, skyline
idempotence, consistency between sampling, volume and membership.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.terminal import terminal_anchor
from repro.data.skyline import skyline_indices
from repro.errors import EmptyRegionError
from repro.geometry.hyperplane import preference_halfspace
from repro.geometry.range import AmbientRange, ExactRange
from repro.geometry.sphere import minimum_enclosing_sphere
from repro.geometry.vectors import regret_ratios
from tests.geometry.test_polytope import hull_volume, narrowed


def halfspace_seeds():
    return st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=3)


def make_halfspaces(seeds, d):
    spaces = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.01, 1.0, size=(2, d))
        if not np.allclose(a, b):
            spaces.append(preference_halfspace(a, b))
    return spaces


class TestIntersectionProperties:
    @given(halfspace_seeds())
    @settings(max_examples=25, deadline=None)
    def test_order_independent_geometry(self, seeds):
        """Intersecting in any order yields the same region."""
        d = 3
        spaces = make_halfspaces(seeds, d)
        forward = narrowed(d, spaces)
        backward = narrowed(d, spaces[::-1])
        assert (forward is None) == (backward is None)
        if forward is not None:
            v1 = forward.vertices()
            v2 = backward.vertices()
            assert v1.shape == v2.shape
            s1 = v1[np.lexsort(v1.T)]
            s2 = v2[np.lexsort(v2.T)]
            np.testing.assert_allclose(s1, s2, atol=1e-6)

    @given(halfspace_seeds())
    @settings(max_examples=25, deadline=None)
    def test_chebyshev_radius_monotone(self, seeds):
        """Each intersection can only shrink the inscribed radius."""
        d = 4
        _, previous = ExactRange(d).chebyshev_center()
        spaces = make_halfspaces(seeds, d)
        for count in range(1, len(spaces) + 1):
            try:
                urange = ExactRange.from_halfspaces(d, spaces[:count])
            except EmptyRegionError:
                return
            _, current = urange.chebyshev_center()
            assert current <= previous + 1e-9
            previous = current

    @given(halfspace_seeds())
    @settings(max_examples=20, deadline=None)
    def test_samples_inside_bounding_box(self, seeds):
        d = 3
        spaces = make_halfspaces(seeds, d)
        urange = narrowed(d, spaces)
        if urange is None:
            return
        ambient = AmbientRange(d)
        for halfspace in spaces:
            ambient.update(halfspace)
        e_min, e_max = ambient.bounds()
        for point in urange.sample(20, rng=0):
            assert np.all(point >= e_min - 1e-6)
            assert np.all(point <= e_max + 1e-6)


class TestTerminalMonotonicity:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.05, max_value=0.2),
        st.floats(min_value=0.05, max_value=0.2),
    )
    @settings(max_examples=30, deadline=None)
    def test_terminal_monotone_in_epsilon(self, seed, eps_a, eps_b):
        """If R is terminal at eps, it is terminal at any larger eps."""
        small, large = sorted((eps_a, eps_b))
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.05, 1.0, size=(8, 3))
        vertices = rng.dirichlet(np.ones(3), size=5)
        if terminal_anchor(points, vertices, small) is not None:
            assert terminal_anchor(points, vertices, large) is not None

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_terminal_anchor_certifies_regret(self, seed):
        """The returned anchor's regret is below eps at every vertex."""
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.05, 1.0, size=(10, 3))
        vertices = rng.dirichlet(np.ones(3), size=4)
        epsilon = 0.15
        anchor = terminal_anchor(points, vertices, epsilon)
        if anchor is None:
            return
        regrets = regret_ratios(points, points[anchor], vertices)
        assert np.all(regrets <= epsilon + 1e-6)


class TestSkylineProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_skyline_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.01, 1.0, size=(30, 3))
        first = points[skyline_indices(points)]
        second = first[skyline_indices(first)]
        assert first.shape == second.shape

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_skyline_preserves_top1_for_any_utility(self, seed):
        """Skyline filtering never changes the best utility value."""
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.01, 1.0, size=(40, 3))
        sky = points[skyline_indices(points)]
        for _ in range(5):
            u = rng.dirichlet(np.ones(3))
            assert np.isclose(
                (points @ u).max(), (sky @ u).max(), atol=1e-12
            )


class TestSphereProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_meb_monotone_under_subset(self, seed):
        """The enclosing ball of a subset fits inside a slightly grown
        ball of the full set (approximation slack included)."""
        rng = np.random.default_rng(seed)
        points = rng.uniform(size=(15, 3))
        full = minimum_enclosing_sphere(points, rng=1)
        subset = minimum_enclosing_sphere(points[:7], rng=1)
        assert subset.radius <= full.radius * 1.25 + 1e-9


class TestVolumeSamplingConsistency:
    """Volume (convex hull of the vertices) and hit-and-run sampling
    must agree."""

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_sample_fraction_tracks_volume_fraction(self, seed):
        d = 3
        spaces = make_halfspaces([seed], d)
        if not spaces:
            return
        whole = ExactRange(d)
        part = narrowed(d, spaces)
        if part is None:
            return
        fraction = hull_volume(part) / hull_volume(whole)
        if fraction < 0.05 or fraction > 0.95:
            return  # too extreme for a 400-sample estimate
        samples = whole.sample(400, rng=seed)
        inside = sum(part.contains(u, tol=1e-7) for u in samples)
        estimate = inside / 400
        assert abs(estimate - fraction) < 0.15
