"""Tests for algorithm AA (environment, training, inference)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import AAConfig, run_session, train_aa
from repro.core.aa import AAEnvironment
from repro.data import synthetic_dataset
from repro.errors import ConfigurationError
from repro.eval.metrics import session_regret
from repro.users import OracleUser


class TestAAConfig:
    def test_defaults_match_paper(self):
        config = AAConfig()
        assert config.epsilon == pytest.approx(0.1)
        assert config.m_h == 5
        assert config.reward_constant == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"m_h": 0},
            {"top_k": 1},
            {"random_pool": -1},
            {"reward_constant": -5.0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            AAConfig(**kwargs)


class TestAAEnvironment:
    def test_state_layout(self, small_anti_3d):
        env = AAEnvironment(small_anti_3d, AAConfig(), rng=0)
        obs = env.reset()
        d = small_anti_3d.dimension
        assert env.state_dim == 3 * d + 1
        assert obs.state.shape == (3 * d + 1,)
        # Initial outer rectangle is the unit box.
        np.testing.assert_allclose(obs.state[d + 1 : 2 * d + 1], 0.0, atol=1e-8)
        np.testing.assert_allclose(obs.state[2 * d + 1 :], 1.0, atol=1e-8)

    def test_candidate_pairs_split_range(self, small_anti_3d):
        """Lemma 8: every candidate pair strictly narrows R."""
        from repro.geometry import lp

        env = AAEnvironment(small_anti_3d, AAConfig(), rng=1)
        obs = env.reset()
        d = small_anti_3d.dimension
        for i, j in obs.pairs:
            normal = small_anti_3d.points[i] - small_anti_3d.points[j]
            margins = lp.ambient_split_margins(
                [], d, np.stack([normal, -normal])
            )
            assert np.all(margins > 0)

    def test_episode_terminates(self, small_anti_3d):
        env = AAEnvironment(small_anti_3d, AAConfig(epsilon=0.15), rng=2)
        u = np.array([0.2, 0.3, 0.5])
        obs = env.reset()
        rounds = 0
        while not obs.terminal and rounds < 200:
            i, j = obs.pairs[0]
            prefers = float(u @ small_anti_3d.points[i]) >= float(
                u @ small_anti_3d.points[j]
            )
            obs, _ = env.step(0, prefers)
            rounds += 1
        assert obs.terminal

    def test_works_in_high_dimensions(self, highd_anti_8d):
        """AA has no dimension guard — that is its selling point."""
        env = AAEnvironment(highd_anti_8d, AAConfig(epsilon=0.2), rng=0)
        obs = env.reset()
        assert not obs.terminal
        obs, _ = env.step(0, True)
        assert obs.state.shape == (3 * 8 + 1,)

    def test_pairs_not_repeated(self, small_anti_3d):
        env = AAEnvironment(small_anti_3d, AAConfig(), rng=3)
        obs = env.reset()
        asked: set[tuple[int, int]] = set()
        u = np.array([0.5, 0.2, 0.3])
        rounds = 0
        while not obs.terminal and rounds < 50:
            i, j = obs.pairs[0]
            pair = (min(i, j), max(i, j))
            assert pair not in asked
            asked.add(pair)
            prefers = float(u @ small_anti_3d.points[i]) >= float(
                u @ small_anti_3d.points[j]
            )
            obs, _ = env.step(0, prefers)
            rounds += 1


class TestAATrainingAndInference:
    def test_regret_below_threshold_empirically(
        self, trained_aa_3d, small_anti_3d, test_utilities_3d
    ):
        """Lemma 9 bounds regret by d^2 eps; empirically it is below eps."""
        for u in test_utilities_3d:
            user = OracleUser(u)
            result = run_session(trained_aa_3d.new_session(rng=7), user)
            assert not result.truncated
            regret = session_regret(small_anti_3d, result, user)
            assert regret <= 0.1 * small_anti_3d.dimension**2 + 1e-9
            assert regret <= 0.1 + 1e-6  # the paper's empirical observation

    def test_stopping_condition_rectangle(self, trained_aa_3d):
        """At termination ||e_min - e_max|| <= 2 sqrt(d) eps."""
        session = trained_aa_3d.new_session(rng=8)
        user = OracleUser(np.array([0.25, 0.35, 0.4]))
        result = run_session(session, user)
        if result.truncated:
            pytest.skip("session truncated; stopping condition not reached")
        from repro.geometry import lp

        d = 3
        e_min, e_max, _ = lp.ambient_bounds(list(session.halfspaces), d)
        width = float(np.linalg.norm(e_max - e_min))
        # The environment may also stop when no splitting pair exists; in
        # that case the rectangle bound does not apply.
        env = session.environment
        if env._pairs == [] and width > 2 * np.sqrt(d) * 0.1:
            pytest.skip("stopped because no splitting pair remained")
        assert width <= 2 * np.sqrt(d) * 0.1 + 1e-6

    def test_training_log_populated(self, trained_aa_3d):
        assert trained_aa_3d.training_log.episodes == 15
        assert trained_aa_3d.training_log.mean_rounds() > 0

    def test_train_aa_smoke_high_dimension(self, highd_anti_8d):
        from repro.data.utility import sample_training_utilities

        agent = train_aa(
            highd_anti_8d,
            sample_training_utilities(8, 2, rng=0),
            config=AAConfig(epsilon=0.25),
            rng=1,
            updates_per_episode=1,
        )
        user = OracleUser(sample_training_utilities(8, 1, rng=9)[0])
        result = run_session(agent.new_session(rng=2), user, max_rounds=300)
        assert result.rounds > 0


@pytest.fixture(scope="module")
def anti_5d():
    """A small 5-d anti-correlated skyline dataset."""
    return synthetic_dataset("anti", 500, 5, rng=505)


def _scalar_margin(halfspaces, d: int, normal: np.ndarray) -> float:
    """One ``max u . normal`` LP over the ambient range; -inf if empty."""
    from repro.geometry import lp

    base = lp.ambient_feasibility_system(halfspaces, d)
    try:
        return -lp.solve(dataclasses.replace(base, c=-normal)).value
    except lp.InfeasibleLP:
        return float("-inf")


def _reference_pool(env: AAEnvironment, center: np.ndarray):
    """The candidate pool built one pair at a time, as a sorted list.

    Top-k pairs and random pairs go through a set, the random pairs drawn
    with one ``integers(0, n, size=2)`` call each; asked pairs are
    skipped.  Advances ``env._rng`` exactly as the environment must.
    """
    config = env.config
    points = env.dataset.points
    n = points.shape[0]
    k = min(config.top_k, n)
    top = np.argpartition(-(points @ center), k - 1)[:k]
    pool: set[tuple[int, int]] = set()
    for a in range(k):
        for b in range(a + 1, k):
            i, j = int(top[a]), int(top[b])
            pool.add((min(i, j), max(i, j)))
    for _ in range(config.random_pool):
        i, j = env._rng.integers(0, n, size=2)
        if i != j:
            pool.add((min(int(i), int(j)), max(int(i), int(j))))
    return sorted(pair for pair in pool if pair not in env._asked)


def _reference_candidate_pairs(
    env: AAEnvironment, center: np.ndarray, pool
):
    """The one-candidate-at-a-time scan with scalar margin LPs.

    Ranks ``pool`` (from :func:`_reference_pool`) by per-pair plane
    distance, exact ties in ascending ``(i, j)`` order.  Returns the
    accepted pairs and how many scored candidates the scan rejected
    before it stopped.
    """
    from repro.geometry.range import SPLIT_TOL

    points = env.dataset.points
    d = points.shape[1]
    scored = []
    for i, j in pool:
        normal = points[i] - points[j]
        norm = float(np.linalg.norm(normal))
        if norm < 1e-12:
            continue
        scored.append((abs(float(center @ normal)) / norm, (i, j)))
    scored.sort()
    halfspaces = env.halfspaces
    accepted, rejected = [], 0
    for _, (i, j) in scored:
        normal = points[i] - points[j]
        if (
            _scalar_margin(halfspaces, d, normal) <= SPLIT_TOL
            or _scalar_margin(halfspaces, d, -normal) <= SPLIT_TOL
        ):
            rejected += 1
            continue
        accepted.append((i, j))
        if len(accepted) >= env.config.m_h:
            break
    return accepted, rejected, len(scored)


def _checked_session(env: AAEnvironment, utility: np.ndarray, max_rounds=60):
    """Drive one oracle session, checking every round's pool and candidates.

    Each ``_candidate_pairs`` call is replayed through the reference pool
    and scan from the same generator state (the pool draws random
    pairs): the array pool must hold the same pairs and leave the same
    generator state, and the stacked scan must accept the same pairs in
    the same order.  Returns per-round ``(rejected, scored)`` counts of
    the reference.
    """
    from repro.utils import rng as rng_state

    stacked = env._candidate_pairs
    rounds = []

    def checked(center):
        saved = rng_state.get_state(env._rng)
        pool = _reference_pool(env, center)
        after = rng_state.get_state(env._rng)
        rng_state.set_state(env._rng, saved)
        assert env._pair_pool(center).tolist() == [list(pair) for pair in pool]
        assert rng_state.get_state(env._rng) == after
        expected, rejected, scored = _reference_candidate_pairs(
            env, center, pool
        )
        rng_state.set_state(env._rng, saved)
        actual = stacked(center)
        assert actual == expected
        assert rng_state.get_state(env._rng) == after
        rounds.append((rejected, scored))
        return actual

    env._candidate_pairs = checked
    points = env.dataset.points
    obs = env.reset()
    step = 0
    while not obs.terminal and step < max_rounds:
        choice = step % len(obs.pairs)
        i, j = obs.pairs[choice]
        obs, _ = env.step(choice, float(utility @ points[i]) >= float(
            utility @ points[j]
        ))
        step += 1
    return rounds


class TestStackedCandidateScan:
    """Stacked split-margin chunks accept exactly what the scalar scan did."""

    @pytest.mark.parametrize(
        "fixture, utility",
        [
            ("small_anti_3d", [0.2, 0.3, 0.5]),
            ("anti_5d", [0.4, 0.1, 0.2, 0.2, 0.1]),
            ("highd_anti_8d", [0.05, 0.2, 0.1, 0.15, 0.1, 0.05, 0.25, 0.1]),
        ],
    )
    def test_same_pairs_every_round(self, request, fixture, utility):
        dataset = request.getfixturevalue(fixture)
        env = AAEnvironment(dataset, AAConfig(epsilon=0.02), rng=5)
        rounds = _checked_session(env, np.array(utility))
        assert len(rounds) > 3

    def test_rejections_force_a_second_chunk(self, small_anti_3d):
        # A tight epsilon runs the session until R is narrow enough that
        # centre-near planes miss it: some rounds reject candidates
        # before m_h are accepted, so the stacked scan needs more chunks.
        env = AAEnvironment(small_anti_3d, AAConfig(epsilon=0.002), rng=6)
        rounds = _checked_session(
            env, np.array([0.3, 0.3, 0.4]), max_rounds=80
        )
        m_h = env.config.m_h
        assert any(
            rejected > 0 and scored > m_h for rejected, scored in rounds
        )

    def test_pool_smaller_than_m_h(self, small_anti_3d):
        # top_k=3 and no random pairs: at most three candidates per round.
        config = AAConfig(epsilon=0.05, top_k=3, random_pool=0)
        env = AAEnvironment(small_anti_3d, config, rng=7)
        rounds = _checked_session(env, np.array([0.5, 0.2, 0.3]))
        assert rounds
        assert all(scored < config.m_h for _, scored in rounds)


class TestPairPool:
    """The array pool: one draw, asked pairs dropped, planeless pairs
    dropped, exact ties in ascending ``(i, j)`` order."""

    @pytest.mark.parametrize("n", [1738, 3_000_000_000])
    @pytest.mark.parametrize("seed", range(5))
    def test_one_draw_matches_per_pair_draws(self, n, seed):
        one = np.random.default_rng(seed)
        each = np.random.default_rng(seed)
        drawn = one.integers(0, n, size=(64, 2))
        expected = np.array([each.integers(0, n, size=2) for _ in range(64)])
        np.testing.assert_array_equal(drawn, expected)
        assert one.bit_generator.state == each.bit_generator.state

    def test_asked_pairs_excluded(self, small_anti_3d):
        from repro.utils import rng as rng_state

        env = AAEnvironment(small_anti_3d, AAConfig(), rng=11)
        env.reset()
        center = np.full(3, 1.0 / 3)
        saved = rng_state.get_state(env._rng)
        pool = [tuple(pair) for pair in env._pair_pool(center).tolist()]
        asked = set(pool[::3])
        env._asked = asked
        rng_state.set_state(env._rng, saved)
        remaining = [tuple(pair) for pair in env._pair_pool(center).tolist()]
        assert remaining == [pair for pair in pool if pair not in asked]
        assert remaining and len(remaining) < len(pool)

    @staticmethod
    def _duplicate_env():
        from repro.data.datasets import Dataset

        points = np.array(
            [[0.9, 0.2], [0.9, 0.2], [0.2, 0.9], [0.5, 0.7], [0.7, 0.3]]
        )
        config = AAConfig(m_h=10, top_k=5, random_pool=0)
        env = AAEnvironment(Dataset(points), config, rng=0)
        env.reset()
        return env

    def test_duplicate_points_have_no_plane(self):
        env = self._duplicate_env()
        center = np.array([0.5, 0.5])
        pool = env._pair_pool(center).tolist()
        assert [0, 1] in pool
        pairs = env._candidate_pairs(center)
        assert (0, 1) not in pairs
        assert len(pairs) == len(pool) - 1

    def test_exact_ties_rank_in_pair_order(self):
        env = self._duplicate_env()
        # Points 0 and 1 coincide, so (0, k) and (1, k) have one plane
        # and exactly the same distance from any centre; no other two
        # planes are parallel.
        center = np.array([0.3, 0.7])
        pairs = env._candidate_pairs(center)
        for k in (2, 3, 4):
            assert pairs.index((0, k)) + 1 == pairs.index((1, k))
        reference = _reference_candidate_pairs(
            env, center, _reference_pool(env, center)
        )
        assert pairs == reference[0]
