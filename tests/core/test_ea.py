"""Tests for algorithm EA (environment, training, inference)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EAConfig, run_session, train_ea
from repro.core.ea import EAEnvironment, MAX_EA_DIMENSION
from repro.data import synthetic_dataset
from repro.errors import ConfigurationError
from repro.eval.metrics import session_regret
from repro.geometry import range as geometry_range
from repro.geometry.vectors import top_point_index
from repro.users import OracleUser


class TestEAConfig:
    def test_defaults_match_paper(self):
        config = EAConfig()
        assert config.epsilon == pytest.approx(0.1)
        assert config.m_h == 5
        assert config.reward_constant == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": 1.0},
            {"m_e": 0},
            {"m_h": 0},
            {"n_samples": -1},
            {"reward_constant": 0.0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            EAConfig(**kwargs)


class TestEAEnvironment:
    def test_dimension_guard(self):
        ds = synthetic_dataset("indep", 100, MAX_EA_DIMENSION + 2, rng=0)
        with pytest.raises(ConfigurationError):
            EAEnvironment(ds, EAConfig())

    def test_reset_gives_candidates(self, small_anti_3d):
        env = EAEnvironment(small_anti_3d, EAConfig(n_samples=32), rng=0)
        obs = env.reset()
        assert not obs.terminal
        assert obs.state.shape == (env.state_dim,)
        assert obs.actions.shape[1] == env.action_dim
        assert 1 <= len(obs.pairs) <= EAConfig().m_h

    def test_step_narrows_polytope(self, small_anti_3d):
        env = EAEnvironment(small_anti_3d, EAConfig(n_samples=32), rng=0)
        obs = env.reset()
        constraints_before = env.utility_range.get_state()["a"].shape[0]
        env.step(0, prefers_first=True)
        constraints_after = env.utility_range.get_state()["a"].shape[0]
        assert constraints_after >= constraints_before

    def test_live_recommendation_is_lazy(self, small_anti_3d):
        """A live round solves no Chebyshev LP; recommend() and the
        state derive the centre's best point from the current range."""
        env = EAEnvironment(small_anti_3d, EAConfig(n_samples=32), rng=0)
        obs = env.reset()
        obs, _ = env.step(0, prefers_first=True)
        assert not obs.terminal
        assert env.utility_range._center is geometry_range._UNSOLVED
        center, _ = env.utility_range.chebyshev_center()
        expected = top_point_index(small_anti_3d.points, center)
        assert env.recommend() == expected
        assert env.get_state()["recommendation"] == expected

    def test_episode_terminates_with_oracle(self, small_anti_3d):
        """With any fixed utility the episode ends in finite rounds."""
        env = EAEnvironment(small_anti_3d, EAConfig(n_samples=32), rng=1)
        u = np.array([0.2, 0.5, 0.3])
        obs = env.reset()
        rounds = 0
        reward = 0.0
        while not obs.terminal and rounds < 100:
            i, j = obs.pairs[0]
            prefers = float(u @ small_anti_3d.points[i]) >= float(
                u @ small_anti_3d.points[j]
            )
            obs, reward = env.step(0, prefers)
            rounds += 1
        assert obs.terminal
        assert reward == pytest.approx(100.0)

    def test_terminal_reward_only_at_end(self, small_anti_3d):
        env = EAEnvironment(small_anti_3d, EAConfig(n_samples=32), rng=2)
        obs = env.reset()
        u = np.array([0.4, 0.3, 0.3])
        rewards = []
        while not obs.terminal and len(rewards) < 100:
            i, j = obs.pairs[0]
            prefers = float(u @ small_anti_3d.points[i]) >= float(
                u @ small_anti_3d.points[j]
            )
            obs, reward = env.step(0, prefers)
            rewards.append(reward)
        assert all(r == 0.0 for r in rewards[:-1])
        assert rewards[-1] == pytest.approx(100.0)

    def test_invalid_choice_rejected(self, small_anti_3d):
        env = EAEnvironment(small_anti_3d, EAConfig(n_samples=32), rng=0)
        env.reset()
        with pytest.raises(ValueError):
            env.step(99, True)


class TestEATrainingAndInference:
    def test_returned_point_meets_threshold(
        self, trained_ea_3d, small_anti_3d, test_utilities_3d
    ):
        """EA is exact: regret < eps for every user (noiseless answers)."""
        for u in test_utilities_3d:
            user = OracleUser(u)
            result = run_session(trained_ea_3d.new_session(rng=5), user)
            assert not result.truncated
            regret = session_regret(small_anti_3d, result, user)
            assert regret <= 0.1 + 1e-6

    def test_rounds_are_modest(self, trained_ea_3d, test_utilities_3d):
        for u in test_utilities_3d:
            result = run_session(trained_ea_3d.new_session(rng=6), OracleUser(u))
            assert result.rounds <= 25

    def test_training_log_populated(self, trained_ea_3d):
        log = trained_ea_3d.training_log
        assert log.episodes == 15
        assert log.mean_rounds() > 0
        assert len(log.losses) > 0

    def test_fresh_sessions_are_independent(self, trained_ea_3d):
        a = trained_ea_3d.new_session(rng=1)
        b = trained_ea_3d.new_session(rng=1)
        assert a is not b
        assert a.rounds == 0 and b.rounds == 0

    def test_train_ea_smoke(self, small_anti_3d):
        from repro.data.utility import sample_training_utilities

        agent = train_ea(
            small_anti_3d,
            sample_training_utilities(3, 3, rng=0),
            config=EAConfig(epsilon=0.2, n_samples=16),
            rng=1,
            updates_per_episode=1,
        )
        result = run_session(
            agent.new_session(rng=2), OracleUser(np.array([0.3, 0.4, 0.3]))
        )
        assert result.rounds >= 0


class TestHigherDimensions:
    def test_ea_works_at_d6(self):
        """EA remains functional well above the d<=5 sweet spot."""
        from repro.data import synthetic_dataset
        from repro.data.utility import sample_training_utilities
        from repro.geometry.vectors import regret_ratio

        ds = synthetic_dataset("anti", 1_000, 6, rng=0)
        agent = train_ea(
            ds,
            sample_training_utilities(6, 4, rng=1),
            config=EAConfig(epsilon=0.15, n_samples=48),
            rng=2,
            updates_per_episode=2,
        )
        u = sample_training_utilities(6, 1, rng=9)[0]
        result = run_session(
            agent.new_session(rng=3), OracleUser(u), max_rounds=200
        )
        assert not result.truncated
        assert regret_ratio(ds.points, result.recommendation, u) <= 0.15 + 1e-6
