"""Tests for the majority-vote wrapper and the engines' recovery rule."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import UHRandomSession
from repro.core import run_session
from repro.core.robust import MajorityVoteSession
from repro.errors import ConfigurationError, EmptyRegionError
from repro.eval.metrics import session_regret
from repro.serve import ContinuousEngine, SessionSpec
from repro.users import NoisyUser, OracleUser


class TestConstruction:
    def test_rejects_even_repeats(self, small_anti_3d):
        inner = UHRandomSession(small_anti_3d, rng=0)
        with pytest.raises(ConfigurationError):
            MajorityVoteSession(inner, repeats=2)

    def test_rejects_zero_repeats(self, small_anti_3d):
        inner = UHRandomSession(small_anti_3d, rng=0)
        with pytest.raises(ConfigurationError):
            MajorityVoteSession(inner, repeats=0)


class TestWithTruthfulUser:
    def test_one_repeat_equals_inner(self, small_anti_3d):
        """With repeats=1 the wrapper is a transparent pass-through."""
        u = np.array([0.3, 0.4, 0.3])
        plain = run_session(
            UHRandomSession(small_anti_3d, rng=7), OracleUser(u)
        )
        wrapped = run_session(
            MajorityVoteSession(UHRandomSession(small_anti_3d, rng=7), 1),
            OracleUser(u),
        )
        assert wrapped.rounds == plain.rounds
        assert wrapped.recommendation_index == plain.recommendation_index

    def test_early_termination_saves_questions(self, small_anti_3d):
        """A truthful user answers consistently, so a 2-vote majority of
        repeats=3 is reached after 2 questions, not 3."""
        u = np.array([0.3, 0.4, 0.3])
        session = MajorityVoteSession(
            UHRandomSession(small_anti_3d, rng=8), repeats=3
        )
        result = run_session(session, OracleUser(u))
        assert result.rounds == 2 * session.inner.rounds

    def test_same_recommendation_as_inner(self, small_anti_3d):
        u = np.array([0.25, 0.45, 0.3])
        plain = run_session(
            UHRandomSession(small_anti_3d, rng=9), OracleUser(u)
        )
        wrapped = run_session(
            MajorityVoteSession(UHRandomSession(small_anti_3d, rng=9), 3),
            OracleUser(u),
        )
        assert wrapped.recommendation_index == plain.recommendation_index


class TestWithNoisyUser:
    def test_majority_voting_reduces_regret(self, small_anti_3d):
        """Across noisy users, voting should not hurt and usually helps."""
        plain_regrets = []
        voted_regrets = []
        for seed in range(8):
            u = np.random.default_rng(seed + 500).dirichlet(np.ones(3))
            noisy_a = NoisyUser(u, error_rate=0.4, temperature=0.2, rng=seed)
            noisy_b = NoisyUser(u, error_rate=0.4, temperature=0.2, rng=seed)
            plain = run_session(
                UHRandomSession(small_anti_3d, rng=seed),
                noisy_a,
                max_rounds=300,
            )
            voted = run_session(
                MajorityVoteSession(
                    UHRandomSession(small_anti_3d, rng=seed), repeats=5
                ),
                noisy_b,
                max_rounds=1_500,
            )
            plain_regrets.append(
                session_regret(small_anti_3d, plain, noisy_a)
            )
            voted_regrets.append(
                session_regret(small_anti_3d, voted, noisy_b)
            )
        assert float(np.mean(voted_regrets)) <= float(
            np.mean(plain_regrets)
        ) + 0.02

    def test_rounds_cost_is_bounded_by_repeats(self, small_anti_3d):
        u = np.array([0.4, 0.3, 0.3])
        session = MajorityVoteSession(
            UHRandomSession(small_anti_3d, rng=11), repeats=5
        )
        result = run_session(
            session, NoisyUser(u, error_rate=0.2, rng=0), max_rounds=2_000
        )
        assert result.rounds <= 5 * session.inner.rounds


class _EmptyOnFirstAnswer(UHRandomSession):
    """Dies as a contradicted range would, on its first answer."""

    def _update(self, question, prefers_first):
        raise EmptyRegionError("utility range is empty (scripted)")


class TestRecoveryRule:
    def test_default_retry_is_a_three_vote_majority(self, small_anti_3d):
        """``recover=True`` re-runs the session from its factory under a
        3-vote majority: a truthful user settles each question in two
        answers, so the retry asks exactly twice the plain run's
        questions and lands on the same recommendation."""
        u = np.array([0.3, 0.4, 0.3])
        plain = run_session(
            UHRandomSession(small_anti_3d, rng=7), OracleUser(u)
        )
        built: list[int] = []

        def factory():
            built.append(1)
            if len(built) == 1:
                return _EmptyOnFirstAnswer(small_anti_3d, rng=7)
            return UHRandomSession(small_anti_3d, rng=7)

        with ContinuousEngine(recover=True) as engine:
            (result,) = engine.run(
                [SessionSpec(factory=factory, user=OracleUser(u))]
            )
        assert result.status == "recovered"
        assert len(built) == 2
        assert result.rounds == 2 * plain.rounds
        assert result.recommendation_index == plain.recommendation_index
