"""Tests for the MDP interface and the RLPolicy adapter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.environment import EnvObservation, RLPolicy
from repro.core.trainer import TrainedAgent
from repro.data.datasets import toy_database
from repro.errors import InteractionError
from repro.rl.dqn import DQNAgent, DQNConfig
from tests.core.test_trainer import LineConfig, LineEnvironment, line_environment


class LineSession(RLPolicy):
    """RLPolicy over the toy MDP (unregistered, so any family name)."""

    family = "line"
    environment_class = LineEnvironment


class TestEnvObservation:
    def test_terminal_with_actions_rejected(self):
        with pytest.raises(ValueError):
            EnvObservation(
                np.zeros(1), np.zeros((1, 2)), [(0, 1)], terminal=True
            )

    def test_non_terminal_without_actions_rejected(self):
        with pytest.raises(ValueError):
            EnvObservation(np.zeros(1), None, None, terminal=False)

    def test_pair_action_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EnvObservation(
                np.zeros(1), np.zeros((2, 2)), [(0, 1)], terminal=False
            )


class TestActionFeatures:
    def test_canonical_order(self):
        env = line_environment()
        np.testing.assert_array_equal(
            env.action_features(0, 1), env.action_features(1, 0)
        )

    def test_concatenation_layout(self):
        env = line_environment()
        features = env.action_features(0, 1)
        points = env.dataset.points
        np.testing.assert_array_equal(
            features, np.concatenate([points[0], points[1]])
        )


class TestRLPolicy:
    def make_policy(self, length: int = 2) -> RLPolicy:
        dqn = DQNAgent(
            state_dim=1, action_dim=4, config=DQNConfig(batch_size=4), rng=0
        )
        agent = TrainedAgent(
            LineSession, toy_database(), LineConfig(length=length), dqn
        )
        return agent.new_session()

    def test_follows_protocol(self):
        policy = self.make_policy(length=2)
        assert not policy.finished
        question = policy.next_question()
        assert (question.index_i, question.index_j) == (0, 1)
        policy.observe(True)
        assert policy.rounds == 1
        policy.next_question()
        policy.observe(False)
        assert policy.finished

    def test_recommend_delegates_to_environment(self):
        policy = self.make_policy(length=1)
        policy.next_question()
        policy.observe(True)
        assert policy.recommend() == 0

    def test_cannot_propose_when_terminal(self):
        policy = self.make_policy(length=1)
        policy.next_question()
        policy.observe(True)
        with pytest.raises(InteractionError):
            policy.next_question()

    def test_halfspaces_delegation(self, trained_aa_3d):
        session = trained_aa_3d.new_session(rng=0)
        assert session.halfspaces == ()
