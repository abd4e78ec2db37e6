"""Tests for the SinglePass baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SinglePassSession, single_pass
from repro.core import run_session
from repro.errors import ConfigurationError
from repro.eval.metrics import session_regret
from repro.geometry import lp
from repro.geometry.range import AmbientRange
from repro.users import OracleUser


class TestConstruction:
    def test_invalid_epsilon(self, small_anti_3d):
        with pytest.raises(ConfigurationError):
            SinglePassSession(small_anti_3d, epsilon=-0.1)

    def test_no_dimension_guard(self, highd_anti_8d):
        """SinglePass is the high-dimensional baseline; 8-d must work."""
        session = SinglePassSession(highd_anti_8d, rng=0)
        assert not session.finished or session.recommend() >= 0


class TestSinglePassBehaviour:
    def test_regret_below_threshold(self, small_anti_3d, test_utilities_3d):
        for u in test_utilities_3d:
            user = OracleUser(u)
            result = run_session(
                SinglePassSession(small_anti_3d, epsilon=0.1, rng=1), user,
                max_rounds=small_anti_3d.n + 5,
            )
            assert not result.truncated
            assert session_regret(small_anti_3d, result, user) <= 0.1 + 1e-6

    def test_at_most_one_question_per_point(self, small_anti_3d):
        user = OracleUser(np.array([0.4, 0.3, 0.3]))
        result = run_session(
            SinglePassSession(small_anti_3d, rng=2), user,
            max_rounds=small_anti_3d.n + 5,
        )
        assert result.rounds <= small_anti_3d.n - 1

    def test_champion_is_always_question_member(self, small_anti_3d):
        user = OracleUser(np.array([0.2, 0.4, 0.4]))
        session = SinglePassSession(small_anti_3d, rng=3)
        while not session.finished and session.rounds < 100:
            question = session.next_question()
            assert question.index_i == session.champion
            session.observe(user.prefers(question.p_i, question.p_j))

    def test_champion_never_loses_recorded_comparisons(self, small_anti_3d):
        """After an answer, the champion is the reported winner."""
        user = OracleUser(np.array([0.3, 0.3, 0.4]))
        session = SinglePassSession(small_anti_3d, rng=4)
        while not session.finished and session.rounds < 100:
            question = session.next_question()
            answer = user.prefers(question.p_i, question.p_j)
            session.observe(answer)
            expected = question.index_i if answer else question.index_j
            assert session.champion == expected

    def test_more_questions_in_higher_dimensions(
        self, small_anti_3d, highd_anti_8d
    ):
        """The paper's headline: SinglePass degrades with dimensionality."""
        low_rounds = []
        high_rounds = []
        for seed in range(3):
            u3 = np.random.default_rng(seed).dirichlet(np.ones(3))
            u8 = np.random.default_rng(seed).dirichlet(np.ones(8))
            low_rounds.append(
                run_session(
                    SinglePassSession(small_anti_3d, rng=seed),
                    OracleUser(u3),
                    max_rounds=2_000,
                ).rounds
            )
            high_rounds.append(
                run_session(
                    SinglePassSession(highd_anti_8d, rng=seed),
                    OracleUser(u8),
                    max_rounds=2_000,
                ).rounds
            )
        assert np.mean(high_rounds) > np.mean(low_rounds)

    def test_loose_epsilon_skips_more(self, small_anti_3d):
        u = np.array([0.3, 0.4, 0.3])
        tight = run_session(
            SinglePassSession(small_anti_3d, epsilon=0.02, rng=5),
            OracleUser(u), max_rounds=2_000,
        )
        loose = run_session(
            SinglePassSession(small_anti_3d, epsilon=0.3, rng=5),
            OracleUser(u), max_rounds=2_000,
        )
        assert loose.rounds <= tight.rounds


class TestWitnessReplay:
    def test_capped_transcript_matches_witness_free_range(
        self, highd_anti_8d, monkeypatch
    ):
        """A small working-set cap rotates constraints out every answer;
        certified updates (no feasibility LP) must still ask exactly the
        questions a range with no witnesses asks."""
        monkeypatch.setattr(single_pass, "_MAX_WORKING_HALFSPACES", 3)
        user = OracleUser(np.random.default_rng(5).dirichlet(np.ones(8)))

        def transcript():
            session = SinglePassSession(highd_anti_8d, epsilon=0.05, rng=6)
            rows = []
            before = lp.solve_count()
            while not session.finished and session.rounds < 300:
                question = session.next_question()
                answer = user.prefers(question.p_i, question.p_j)
                rows.append((question.index_i, question.index_j, answer))
                session.observe(answer)
            assert len(session.halfspaces) <= 3
            return rows, session.recommend(), lp.solve_count() - before

        rows, best, solves = transcript()
        with monkeypatch.context() as patch:
            patch.setattr(
                AmbientRange, "_add_witnesses", lambda self, source, points: None
            )
            ref_rows, ref_best, ref_solves = transcript()
        assert len(rows) > 10
        assert rows == ref_rows and best == ref_best
        assert solves < ref_solves

    def test_capped_bounds_never_reuse_across_a_rotation(
        self, highd_anti_8d, monkeypatch
    ):
        """With cap 3 the oldest answer rotates out every answer; a
        bounds() call after a rotation solves all 2d probes."""
        monkeypatch.setattr(single_pass, "_MAX_WORKING_HALFSPACES", 3)
        user = OracleUser(np.random.default_rng(5).dirichlet(np.ones(8)))
        calls = []
        solved = []
        bounds = AmbientRange.bounds
        probes = lp.ambient_bound_probes

        def recording_bounds(self):
            last = self._bound_probes
            calls.append(
                (None if last is None else last.halfspaces, self.halfspaces)
            )
            return bounds(self)

        def recording_probes(halfspaces, d, mask):
            solved.append(int(mask.sum()))
            return probes(halfspaces, d, mask)

        monkeypatch.setattr(AmbientRange, "bounds", recording_bounds)
        monkeypatch.setattr(lp, "ambient_bound_probes", recording_probes)
        session = SinglePassSession(highd_anti_8d, epsilon=0.05, rng=6)
        while not session.finished and session.rounds < 300:
            question = session.next_question()
            session.observe(user.prefers(question.p_i, question.p_j))
        assert len(calls) == len(solved)
        rotated = 0
        for (base, working), count in zip(calls, solved):
            if base is None:
                assert count == 16
            elif any(old is not new for old, new in zip(base, working)):
                rotated += 1
                assert count == 16
        assert rotated > 10
