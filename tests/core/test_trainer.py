"""Tests for the generic DQN training loop over environments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.environment import EnvObservation, InteractiveEnvironment
from repro.core.trainer import TrainingLog, train_agent
from repro.data.datasets import toy_database
from repro.rl.dqn import DQNAgent, DQNConfig


@dataclass(frozen=True)
class LineConfig:
    """The toy's config: episode length plus the fields the skeleton reads."""

    length: int = 3
    epsilon: float = 0.1
    reward_constant: float = 100.0
    step_penalty: float = 0.0


class LineEnvironment(InteractiveEnvironment):
    """A tiny deterministic MDP: reach the terminal in `length` steps.

    Candidate pairs are always (0, 1); the episode ends after a fixed
    number of steps regardless of answers — enough to exercise the
    trainer's bookkeeping and the shared step/reward skeleton
    deterministically.  It keeps no utility range.
    """

    def _new_range(self) -> None:
        return None

    @property
    def state_dim(self) -> int:
        return 1

    def reset(self) -> EnvObservation:
        self._position = 0
        return self._observe()

    def _observe(self) -> EnvObservation:
        state = np.array([float(self._position)])
        if self._position >= self.config.length:
            return self._terminal_observation(state)
        return self._live_observation(state, [(0, 1)])

    def _transition(self, index_i, index_j, halfspace) -> EnvObservation:
        self._position += 1
        return self._observe()

    def recommend(self) -> int:
        return 0


def line_environment(length: int = 3) -> LineEnvironment:
    """A :class:`LineEnvironment` over the toy database."""
    return LineEnvironment(toy_database(), LineConfig(length=length))


class TestTrainAgent:
    def make_dqn(self) -> DQNAgent:
        return DQNAgent(
            state_dim=1,
            action_dim=4,
            config=DQNConfig(batch_size=8),
            rng=0,
        )

    def test_episode_count(self):
        env = line_environment(2)
        utilities = np.tile([0.3, 0.7], (5, 1))
        log = train_agent(env, self.make_dqn(), utilities)
        assert log.episodes == 5
        assert log.rounds_per_episode == [2] * 5

    def test_replay_filled(self):
        env = line_environment(3)
        dqn = self.make_dqn()
        train_agent(env, dqn, np.tile([0.3, 0.7], (4, 1)))
        assert len(dqn.memory) == 12

    def test_losses_recorded(self):
        env = line_environment(2)
        log = train_agent(
            env,
            self.make_dqn(),
            np.tile([0.3, 0.7], (3, 1)),
            updates_per_episode=2,
        )
        assert len(log.losses) == 6

    def test_round_cap_truncates(self):
        env = line_environment(50)
        log = train_agent(
            env, self.make_dqn(), np.tile([0.3, 0.7], (2, 1)), round_cap=5
        )
        assert log.truncated_episodes == 2
        assert log.rounds_per_episode == [5, 5]

    def test_on_episode_callback(self):
        env = line_environment(1)
        seen = []
        train_agent(
            env,
            self.make_dqn(),
            np.tile([0.3, 0.7], (3, 1)),
            on_episode=lambda episode, rounds: seen.append((episode, rounds)),
        )
        assert seen == [(0, 1), (1, 1), (2, 1)]

    def test_invalid_updates_rejected(self):
        env = line_environment()
        with pytest.raises(ValueError):
            train_agent(
                env, self.make_dqn(), np.zeros((1, 2)), updates_per_episode=-1
            )


class TestTrainingLog:
    def test_mean_rounds_empty(self):
        assert np.isnan(TrainingLog().mean_rounds())

    def test_mean_rounds_tail(self):
        log = TrainingLog(rounds_per_episode=[10, 2, 4])
        assert log.mean_rounds(last=2) == pytest.approx(3.0)
        assert log.mean_rounds() == pytest.approx(16 / 3)
