"""Tests for terminal polyhedra and the anchor set (Lemmas 4, 6, 7)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from repro.core import terminal
from repro.geometry.hyperplane import preference_halfspace
from repro.geometry.range import ExactRange
from repro.geometry.vectors import regret_ratio
from tests.integration.test_lemmas import epsilon_halfspace


@pytest.fixture
def corner_points():
    """Three well-separated skyline points in 3-d."""
    return np.array(
        [
            [1.0, 0.1, 0.1],
            [0.1, 1.0, 0.1],
            [0.1, 0.1, 1.0],
        ]
    )


class TestEpsilonDominates:
    """The eps-domination inequality behind :func:`terminal_anchor`:
    an anchor's utility is at least ``(1 - eps)`` times the best at
    every vertex."""

    def test_winner_dominates_itself(self, corner_points):
        # Each point tops one vertex but loses badly at the others.
        vertices = np.eye(3)
        assert terminal.terminal_anchor(corner_points, vertices, 0.1) is None

    def test_dominates_when_within_epsilon(self):
        # Both points are within eps of the best at every vertex; the
        # one with the larger worst-case margin is returned.
        points = np.array([[1.0, 1.0], [0.95, 0.95]])
        assert terminal.terminal_anchor(points, np.eye(2), 0.1) == 0
        assert terminal.terminal_anchor(points[::-1], np.eye(2), 0.1) == 1

    def test_not_within_small_epsilon(self):
        # Point 1 misses by 20%, so only point 0 qualifies...
        points = np.array([[1.0, 1.0], [0.8, 0.8]])
        assert terminal.terminal_anchor(points, np.eye(2), 0.1) == 0
        # ...and without point 0 to compare against, point 1 does too.
        assert terminal.terminal_anchor(points[1:], np.eye(2), 0.1) == 0


class TestAnchorIndices:
    def test_finds_all_corner_winners(self, corner_points):
        vectors = np.eye(3)
        anchors, _ = terminal.anchor_indices_with_counts(
            corner_points, vectors
        )
        np.testing.assert_array_equal(anchors, [0, 1, 2])

    def test_counts_reflect_frequency(self, corner_points):
        vectors = np.array(
            [[0.9, 0.05, 0.05], [0.8, 0.1, 0.1], [0.05, 0.9, 0.05]]
        )
        anchors, counts = terminal.anchor_indices_with_counts(
            corner_points, vectors
        )
        np.testing.assert_array_equal(anchors, [0, 1])
        np.testing.assert_array_equal(counts, [2, 1])


class TestTerminalAnchor:
    def test_whole_simplex_not_terminal(self, corner_points):
        vertices = np.eye(3)
        assert (
            terminal.terminal_anchor(corner_points, vertices, epsilon=0.1)
            is None
        )

    def test_narrow_region_is_terminal(self, corner_points):
        # A tight region around the first corner: point 0 dominates.
        vertices = np.array(
            [[0.9, 0.05, 0.05], [0.85, 0.1, 0.05], [0.85, 0.05, 0.1]]
        )
        anchor = terminal.terminal_anchor(corner_points, vertices, epsilon=0.1)
        assert anchor == 0

    def test_lemma4_regret_bound(self, corner_points):
        """Any point of a terminal polyhedron gives regret < eps (Lemma 4)."""
        epsilon = 0.15
        best = 0
        terminal_region = ExactRange.from_halfspaces(3, [
            epsilon_halfspace(corner_points[best], corner_points[j], epsilon)
            for j in range(corner_points.shape[0])
            if j != best
        ])
        for u in terminal_region.sample(100, rng=0):
            assert (
                regret_ratio(corner_points, corner_points[best], u)
                <= epsilon + 1e-9
            )

    def test_terminal_anchor_agrees_with_lemma4_region(self, corner_points):
        """Inside a terminal polyhedron, the terminal test must fire."""
        epsilon = 0.2
        terminal_region = ExactRange.from_halfspaces(3, [
            epsilon_halfspace(corner_points[0], corner_points[j], epsilon)
            for j in (1, 2)
        ])
        vertices = terminal_region.vertices()
        anchor = terminal.terminal_anchor(corner_points, vertices, epsilon)
        assert anchor == 0

    def test_invalid_epsilon(self, corner_points):
        with pytest.raises(ValueError):
            terminal.terminal_anchor(corner_points, np.eye(3), epsilon=0.0)


class TestBuildActionVectors:
    def test_includes_vertices(self):
        vectors = terminal.build_action_vectors(
            ExactRange(3), n_samples=10, rng=0
        )
        assert vectors.shape == (13, 3)

    def test_zero_samples_only_vertices(self):
        vectors = terminal.build_action_vectors(
            ExactRange(3), n_samples=0, rng=0
        )
        assert vectors.shape == (3, 3)


class TestAnchorPairs:
    def test_pairs_are_distinct_points(self, rng):
        pairs = terminal.anchor_pairs(np.array([3, 5, 9]), m_h=3, rng=rng)
        for i, j in pairs:
            assert i != j

    def test_all_pairs_when_few_anchors(self, rng):
        pairs = terminal.anchor_pairs(np.array([1, 2]), m_h=5, rng=rng)
        assert pairs == [(1, 2)]

    def test_count_capped_at_m_h(self, rng):
        pairs = terminal.anchor_pairs(np.arange(10), m_h=4, rng=rng)
        assert len(pairs) == 4

    def test_weighted_selection_prefers_heavy_anchors(self, rng):
        anchors = np.arange(10)
        counts = np.array([100, 100, 1, 1, 1, 1, 1, 1, 1, 1])
        seen: set[tuple[int, int]] = set()
        for _ in range(30):
            seen.update(
                terminal.anchor_pairs(anchors, m_h=1, rng=rng, counts=counts)
            )
        # The heavy pair (0, 1) dominates the draw.
        assert (0, 1) in seen

    def test_single_anchor_rejected(self, rng):
        with pytest.raises(ValueError):
            terminal.anchor_pairs(np.array([1]), m_h=1, rng=rng)

    def test_output_sorted(self, rng):
        anchors = np.array([9, 2, 7, 4, 5])
        counts = np.array([3, 1, 4, 1, 5])
        for _ in range(20):
            pairs = terminal.anchor_pairs(anchors, m_h=5, rng=rng, counts=counts)
            assert pairs == sorted(pairs)
            assert all(i < j for i, j in pairs)

    def test_pairs_that_do_not_split_the_vertices_are_not_offered(self, rng):
        # Anchors 0 and 1 at the traced stall's vertices: their plane has
        # a vertex 7.2e-10 on the far side, below SPLIT_TOL, so asking it
        # leaves the vertex set unchanged.  Anchor 2 splits against both.
        plane = np.array([1.692e-9, 0.1187, -7.233e-10, 0.06945])
        third = np.array([0.5, -0.5, 0.5, -0.5])
        scores = np.stack([plane, np.zeros(4), third], axis=1)
        anchors = np.array([14, 92, 41])
        for _ in range(20):
            pairs = terminal.anchor_pairs(
                anchors, m_h=1, rng=rng, vertex_scores=scores
            )
            assert pairs[0] != (14, 92)
        assert terminal.anchor_pairs(
            anchors, m_h=5, rng=rng, vertex_scores=scores
        ) == [(14, 41), (41, 92)]

    def test_all_pairs_are_candidates_when_none_splits(self, rng):
        scores = np.zeros((4, 3))
        pairs = terminal.anchor_pairs(
            np.array([1, 2, 3]), m_h=5, rng=rng, vertex_scores=scores
        )
        assert pairs == [(1, 2), (1, 3), (2, 3)]

    def test_non_positive_counts_rejected(self, rng):
        with pytest.raises(ValueError, match="positive"):
            terminal.anchor_pairs(
                np.arange(4), m_h=2, rng=rng, counts=np.array([3, 0, 1, 1])
            )

    @pytest.mark.parametrize("weights", ["none", "uniform", "skewed"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_pair_draw_matches_successive_draws(self, n, weights):
        """One weighted draw over pairs picks each pair as often as the
        loop of weighted two-point draws it replaced (chi-square test of
        homogeneity on how often each pair is offered)."""
        anchors = np.arange(10, 10 + n)
        counts = {
            "none": None,
            "uniform": np.full(n, 4),
            "skewed": np.array([40, 17, 9, 4, 2, 1, 1, 1])[:n],
        }[weights]
        m_h = min(5, n * (n - 1) // 2 - 1)
        index = {
            pair: k
            for k, pair in enumerate(
                (int(anchors[i]), int(anchors[j]))
                for i in range(n)
                for j in range(i + 1, n)
            )
        }
        trials = 2_000
        table = np.zeros((2, len(index)), dtype=int)
        new_rng = np.random.default_rng(n)
        old_rng = np.random.default_rng(100 + n)
        for _ in range(trials):
            for pair in terminal.anchor_pairs(anchors, m_h, new_rng, counts):
                table[0, index[pair]] += 1
            for pair in _successive_pairs(anchors, m_h, old_rng, counts):
                table[1, index[pair]] += 1
        assert table.sum(axis=1).tolist() == [trials * m_h] * 2
        assert chi2_contingency(table).pvalue > 1e-3

    def test_lemma7_pairs_split_range(self, corner_points, rng):
        """Both sides of an anchor-pair plane intersect R (Lemma 7)."""
        vectors = terminal.build_action_vectors(
            ExactRange(3), n_samples=50, rng=rng
        )
        anchors, _ = terminal.anchor_indices_with_counts(
            corner_points, vectors
        )
        pairs = terminal.anchor_pairs(anchors, m_h=3, rng=rng)
        for i, j in pairs:
            h = preference_halfspace(corner_points[i], corner_points[j])
            # Neither side is empty: from_halfspaces raises if it is.
            ExactRange.from_halfspaces(3, [h])
            ExactRange.from_halfspaces(3, [h.flipped()])


def _successive_pairs(anchors, m_h, rng, counts=None):
    """The rejection loop ``anchor_pairs`` replaced: draw two distinct
    anchors (weighted by ``counts``) until ``m_h`` distinct pairs are in."""
    probabilities = None if counts is None else counts / counts.sum()
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m_h:
        pick = rng.choice(anchors.shape[0], size=2, replace=False, p=probabilities)
        i, j = int(anchors[pick[0]]), int(anchors[pick[1]])
        pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)
