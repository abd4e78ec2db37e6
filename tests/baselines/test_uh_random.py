"""Tests for the UH-Random baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import UHRandomSession
from repro.baselines.uh_base import MAX_UH_DIMENSION
from repro.core import run_session
from repro.data import synthetic_dataset
from repro.errors import ConfigurationError
from repro.eval.metrics import session_regret
from repro.users import OracleUser


class TestConstruction:
    def test_dimension_guard(self):
        ds = synthetic_dataset("indep", 50, MAX_UH_DIMENSION + 1, rng=0)
        with pytest.raises(ConfigurationError):
            UHRandomSession(ds)

    def test_invalid_epsilon(self, small_anti_3d):
        with pytest.raises(ConfigurationError):
            UHRandomSession(small_anti_3d, epsilon=0.0)

    def test_candidates_start_full(self, small_anti_3d):
        session = UHRandomSession(small_anti_3d, rng=0)
        assert session.candidates.shape[0] <= small_anti_3d.n
        assert session.candidates.shape[0] > 1


class TestExactness:
    def test_regret_below_threshold(
        self, small_anti_3d, test_utilities_3d
    ):
        """UH-Random is exact: regret < eps for every oracle user."""
        for u in test_utilities_3d:
            user = OracleUser(u)
            result = run_session(UHRandomSession(small_anti_3d, rng=1), user)
            assert not result.truncated
            assert session_regret(small_anti_3d, result, user) <= 0.1 + 1e-6

    def test_questions_use_distinct_candidates(self, small_anti_3d):
        session = UHRandomSession(small_anti_3d, rng=2)
        question = session.next_question()
        assert question.index_i != question.index_j

    def test_candidate_set_shrinks(self, small_anti_3d):
        user = OracleUser(np.array([0.3, 0.4, 0.3]))
        session = UHRandomSession(small_anti_3d, rng=3)
        before = session.candidates.shape[0]
        for _ in range(3):
            if session.finished:
                break
            question = session.next_question()
            session.observe(user.prefers(question.p_i, question.p_j))
        assert session.candidates.shape[0] <= before

    def test_pruning_never_drops_true_best(self, small_anti_3d):
        """The user's favourite must survive candidate pruning."""
        u = np.array([0.2, 0.45, 0.35])
        user = OracleUser(u)
        best = int(np.argmax(small_anti_3d.points @ u))
        session = UHRandomSession(small_anti_3d, rng=4)
        while not session.finished and session.rounds < 100:
            question = session.next_question()
            session.observe(user.prefers(question.p_i, question.p_j))
            assert best in set(session.candidates.tolist())


class TestEasyEpsilon:
    def test_large_epsilon_fewer_rounds(self, small_anti_3d):
        u = np.array([0.3, 0.3, 0.4])
        tight = run_session(
            UHRandomSession(small_anti_3d, epsilon=0.05, rng=5), OracleUser(u)
        )
        loose = run_session(
            UHRandomSession(small_anti_3d, epsilon=0.3, rng=5), OracleUser(u)
        )
        assert loose.rounds <= tight.rounds


class TestFallbackRecommendation:
    def test_recommend_before_finish_is_valid(self, small_anti_3d):
        """recommend() mid-session returns the centre-best candidate."""
        session = UHRandomSession(small_anti_3d, rng=6)
        index = session.recommend()
        assert 0 <= index < small_anti_3d.n
        # It should be the best point w.r.t. the Chebyshev centre.
        center, _ = session.utility_range.chebyshev_center()
        scores = small_anti_3d.points @ center
        assert index == int(np.argmax(scores))
