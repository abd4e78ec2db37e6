"""Tests for evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.session import SessionResult
from repro.errors import EmptyRegionError
from repro.eval.metrics import max_regret_ratio, session_regret
from repro.geometry.hyperplane import preference_halfspace
from repro.users import OracleUser


class TestSessionRegret:
    def test_zero_for_favourite(self, toy):
        u = np.array([0.3, 0.7])
        result = SessionResult(
            recommendation_index=2,
            recommendation=toy.points[2],
            rounds=1,
            elapsed_seconds=0.0,
        )
        assert session_regret(toy, result, OracleUser(u)) == pytest.approx(0.0)

    def test_matches_paper_example(self, toy):
        u = np.array([0.3, 0.7])
        result = SessionResult(
            recommendation_index=1,
            recommendation=toy.points[1],
            rounds=1,
            elapsed_seconds=0.0,
        )
        value = session_regret(toy, result, OracleUser(u))
        assert value == pytest.approx((0.71 - 0.58) / 0.71, abs=1e-6)


class TestMaxRegretRatio:
    def test_without_halfspaces_uses_whole_simplex(self, toy):
        value = max_regret_ratio(toy, 2, [], n_samples=500, rng=0)
        # p_3 = (0.5, 0.8) loses significantly at the simplex corners.
        assert 0.1 < value < 1.0

    def test_shrinks_as_halfspaces_accumulate(self, toy):
        h = preference_halfspace(toy.points[2], toy.points[0])
        g = preference_halfspace(toy.points[2], toy.points[4])
        free = max_regret_ratio(toy, 2, [], n_samples=500, rng=0)
        constrained = max_regret_ratio(toy, 2, [h, g], n_samples=500, rng=0)
        assert constrained <= free + 1e-9

    def test_inconsistent_halfspaces_raise(self, toy):
        h = preference_halfspace(toy.points[2], toy.points[0])
        # Build a contradiction by strictly flipping with a shifted point.
        g = preference_halfspace(toy.points[0] * 0.99, toy.points[2])
        k = preference_halfspace(toy.points[0], toy.points[2])
        with pytest.raises(EmptyRegionError):
            max_regret_ratio(toy, 2, [h, g, k], n_samples=10, rng=0)

    def test_zero_when_point_dominates_region(self, toy):
        """If the region pins u near p_3's win zone, max regret ~ 0."""
        h = preference_halfspace(toy.points[2], toy.points[0])
        g = preference_halfspace(toy.points[2], toy.points[3])
        value = max_regret_ratio(toy, 2, [h, g], n_samples=800, rng=1)
        # p_3 wins throughout its preference region.
        assert value < 0.12

