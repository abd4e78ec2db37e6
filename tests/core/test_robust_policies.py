"""Tests for the RobustPolicy seam and the newer robust wrappers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import UHRandomSession
from repro.core import run_session
from repro.core.robust import (
    ConfidenceWeightedPolicy,
    ConfidenceWeightedSession,
    EpsilonInflationPolicy,
    MajorityVotePolicy,
    MajorityVoteSession,
    RecoveryPolicy,
    inflate_epsilon,
    session_epsilon,
)
from repro.errors import ConfigurationError
from repro.users import NoisyUser, OracleUser


class TestConfidenceWeightedSession:
    def test_rejects_bad_parameters(self, small_anti_3d):
        inner = UHRandomSession(small_anti_3d, rng=0)
        with pytest.raises(ConfigurationError):
            ConfidenceWeightedSession(inner, lead=0)
        with pytest.raises(ConfigurationError):
            ConfidenceWeightedSession(
                UHRandomSession(small_anti_3d, rng=0), lead=3, max_repeats=2
            )

    def test_lead_one_is_a_pass_through(self, small_anti_3d):
        u = np.array([0.3, 0.4, 0.3])
        plain = run_session(
            UHRandomSession(small_anti_3d, rng=7), OracleUser(u)
        )
        wrapped = run_session(
            ConfidenceWeightedSession(
                UHRandomSession(small_anti_3d, rng=7), lead=1
            ),
            OracleUser(u),
        )
        assert wrapped.rounds == plain.rounds
        assert wrapped.recommendation_index == plain.recommendation_index

    def test_consistent_user_pays_exactly_lead_per_question(
        self, small_anti_3d
    ):
        u = np.array([0.3, 0.4, 0.3])
        session = ConfidenceWeightedSession(
            UHRandomSession(small_anti_3d, rng=8), lead=2
        )
        result = run_session(session, OracleUser(u))
        assert result.rounds == 2 * session.inner_rounds

    def test_same_recommendation_as_inner_when_truthful(self, small_anti_3d):
        u = np.array([0.25, 0.45, 0.3])
        plain = run_session(
            UHRandomSession(small_anti_3d, rng=9), OracleUser(u)
        )
        wrapped = run_session(
            ConfidenceWeightedSession(
                UHRandomSession(small_anti_3d, rng=9), lead=3
            ),
            OracleUser(u),
        )
        assert wrapped.recommendation_index == plain.recommendation_index

    def test_budget_bounds_cost_under_noise(self, small_anti_3d):
        u = np.array([0.4, 0.3, 0.3])
        session = ConfidenceWeightedSession(
            UHRandomSession(small_anti_3d, rng=11), lead=2, max_repeats=5
        )
        result = run_session(
            session, NoisyUser(u, error_rate=0.3, rng=0), max_rounds=2_000
        )
        assert result.rounds <= 5 * session.inner_rounds


class TestEpsilonInflation:
    def test_inflates_baseline_epsilon(self, small_anti_3d):
        session = UHRandomSession(small_anti_3d, epsilon=0.1, rng=0)
        inflate_epsilon(session, 2.0)
        assert session_epsilon(session) == pytest.approx(0.2)

    def test_caps_at_max_epsilon(self, small_anti_3d):
        session = UHRandomSession(small_anti_3d, epsilon=0.4, rng=0)
        inflate_epsilon(session, 10.0, max_epsilon=0.5)
        assert session_epsilon(session) == pytest.approx(0.5)

    def test_recurses_through_wrappers(self, small_anti_3d):
        wrapped = MajorityVoteSession(
            UHRandomSession(small_anti_3d, epsilon=0.1, rng=0), repeats=3
        )
        inflate_epsilon(wrapped, 3.0)
        assert session_epsilon(wrapped) == pytest.approx(0.3)

    def test_rejects_deflation(self, small_anti_3d):
        session = UHRandomSession(small_anti_3d, epsilon=0.1, rng=0)
        with pytest.raises(ConfigurationError):
            inflate_epsilon(session, 0.5)

    def test_looser_threshold_stops_sooner(self, small_anti_3d):
        u = np.array([0.3, 0.4, 0.3])
        tight = run_session(
            UHRandomSession(small_anti_3d, epsilon=0.05, rng=3), OracleUser(u)
        )
        loose = run_session(
            inflate_epsilon(
                UHRandomSession(small_anti_3d, epsilon=0.05, rng=3), 8.0
            ),
            OracleUser(u),
        )
        assert loose.rounds <= tight.rounds


class TestPolicies:
    def test_majority_policy_builds_a_vote_session(self, small_anti_3d):
        policy = MajorityVotePolicy(repeats=5)
        session = policy.build(
            lambda: UHRandomSession(small_anti_3d, rng=0), attempt=1
        )
        assert isinstance(session, MajorityVoteSession)
        assert session.repeats == 5

    def test_confidence_policy_builds_a_lead_session(self, small_anti_3d):
        policy = ConfidenceWeightedPolicy(lead=3, max_repeats=7)
        session = policy.build(
            lambda: UHRandomSession(small_anti_3d, rng=0), attempt=1
        )
        assert isinstance(session, ConfidenceWeightedSession)
        assert session.lead == 3

    def test_epsilon_policy_compounds_per_attempt(self, small_anti_3d):
        policy = EpsilonInflationPolicy(factor=2.0)
        first = policy.build(
            lambda: UHRandomSession(small_anti_3d, epsilon=0.1, rng=0),
            attempt=1,
        )
        second = policy.build(
            lambda: UHRandomSession(small_anti_3d, epsilon=0.1, rng=0),
            attempt=2,
        )
        assert session_epsilon(first) == pytest.approx(0.2)
        assert session_epsilon(second) == pytest.approx(0.4)

    def test_epsilon_policy_can_stack_majority_voting(self, small_anti_3d):
        policy = EpsilonInflationPolicy(factor=2.0, repeats=3)
        session = policy.build(
            lambda: UHRandomSession(small_anti_3d, epsilon=0.1, rng=0),
            attempt=1,
        )
        assert isinstance(session, MajorityVoteSession)
        assert session_epsilon(session) == pytest.approx(0.2)


class TestRecoveryPolicyIntegration:
    def test_default_build_retry_matches_history(self, small_anti_3d):
        """Without an explicit RobustPolicy, retries are majority votes
        with ``majority_repeats`` — the pre-seam behaviour."""
        recovery = RecoveryPolicy(majority_repeats=5)
        session = recovery.build_retry(
            lambda: UHRandomSession(small_anti_3d, rng=0), attempt=1
        )
        assert isinstance(session, MajorityVoteSession)
        assert session.repeats == 5

    def test_explicit_policy_overrides_default(self, small_anti_3d):
        recovery = RecoveryPolicy(
            policy=EpsilonInflationPolicy(factor=3.0), max_retries=2
        )
        session = recovery.build_retry(
            lambda: UHRandomSession(small_anti_3d, epsilon=0.1, rng=0),
            attempt=1,
        )
        assert not isinstance(session, MajorityVoteSession)
        assert session_epsilon(session) == pytest.approx(0.3)
