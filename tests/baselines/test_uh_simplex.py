"""Tests for the UH-Simplex baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import UHRandomSession, UHSimplexSession
from repro.core import run_session
from repro.errors import ConfigurationError
from repro.eval.metrics import session_regret
from repro.users import OracleUser


class TestConstruction:
    def test_invalid_epsilon(self, small_anti_3d):
        with pytest.raises(ConfigurationError):
            UHSimplexSession(small_anti_3d, epsilon=1.0)

    def test_family(self, small_anti_3d):
        assert UHSimplexSession(small_anti_3d, rng=0).family == "uh-simplex"


class TestExactness:
    def test_regret_below_threshold(self, small_anti_3d, test_utilities_3d):
        for u in test_utilities_3d:
            user = OracleUser(u)
            result = run_session(UHSimplexSession(small_anti_3d, rng=1), user)
            assert not result.truncated
            assert session_regret(small_anti_3d, result, user) <= 0.1 + 1e-6

    def test_terminates_within_theory_bound(self, small_anti_3d):
        user = OracleUser(np.array([0.5, 0.25, 0.25]))
        result = run_session(
            UHSimplexSession(small_anti_3d, rng=2), user,
            max_rounds=small_anti_3d.n + 10,
        )
        assert not result.truncated


class TestGreedySelection:
    def test_selected_plane_near_center(self, small_anti_3d):
        """The chosen pair's hyper-plane passes near the range centre."""
        session = UHSimplexSession(small_anti_3d, rng=3)
        question = session.next_question()
        center, _ = session.utility_range.chebyshev_center()
        normal = question.p_i - question.p_j
        distance = abs(float(center @ normal)) / float(np.linalg.norm(normal))
        # The centre of the full simplex is at distance ~0.57 from corners;
        # a near-centre split must be well inside that.
        assert distance < 0.3

    def test_deterministic_first_question(self, small_anti_3d):
        q1 = UHSimplexSession(small_anti_3d, rng=0).next_question()
        q2 = UHSimplexSession(small_anti_3d, rng=1).next_question()
        assert (q1.index_i, q1.index_j) == (q2.index_i, q2.index_j)

    def test_fewer_rounds_than_random_on_average(
        self, small_anti_3d, test_utilities_3d
    ):
        """The greedy variant should not lose to random selection."""
        random_rounds = []
        simplex_rounds = []
        for seed, u in enumerate(test_utilities_3d):
            user_a = OracleUser(u)
            user_b = OracleUser(u)
            random_rounds.append(
                run_session(
                    UHRandomSession(small_anti_3d, rng=seed), user_a
                ).rounds
            )
            simplex_rounds.append(
                run_session(
                    UHSimplexSession(small_anti_3d, rng=seed), user_b
                ).rounds
            )
        assert np.mean(simplex_rounds) <= np.mean(random_rounds) + 1.0
