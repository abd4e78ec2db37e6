"""Tests for the user-model zoo and its registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.session import Question, ask_user
from repro.errors import ConfigurationError, PersistenceError
from repro.users import (
    AbstainingUser,
    DriftingUser,
    FatigueUser,
    OracleUser,
    PersonaUser,
    canonical_user_model,
    capture_user_state,
    make_user,
    restore_user_state,
    user_model_names,
)

LEFT = np.array([1.0, 0.0])
RIGHT = np.array([0.0, 1.0])


def question() -> Question:
    return Question(index_i=0, index_j=1, p_i=LEFT, p_j=RIGHT)


class TestPersonaUser:
    def test_unanimous_personas_answer_like_an_oracle(self):
        personas = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]])
        user = PersonaUser(personas, rng=0)
        for _ in range(10):
            assert user.prefers(LEFT, RIGHT)
        assert user.questions_asked == 10

    def test_split_personas_give_inconsistent_answers(self):
        personas = np.array([[0.9, 0.1], [0.1, 0.9]])
        user = PersonaUser(personas, rng=0)
        answers = {user.prefers(LEFT, RIGHT) for _ in range(50)}
        assert answers == {True, False}

    def test_utility_is_the_weighted_mixture(self):
        personas = np.array([[1.0, 0.0], [0.0, 1.0]])
        user = PersonaUser(personas, weights=np.array([0.25, 0.75]), rng=0)
        np.testing.assert_allclose(user.utility, [0.25, 0.75])

    def test_rejects_off_simplex_persona(self):
        with pytest.raises(ValueError):
            PersonaUser(np.array([[0.9, 0.9]]))

    def test_rejects_bad_weights(self):
        personas = np.array([[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(ValueError):
            PersonaUser(personas, weights=np.array([0.9, 0.9]))

    def test_seeded_streams_reproduce(self):
        personas = np.array([[0.9, 0.1], [0.1, 0.9]])
        a = PersonaUser(personas, rng=7)
        b = PersonaUser(personas, rng=7)
        for _ in range(25):
            assert a.prefers(LEFT, RIGHT) == b.prefers(LEFT, RIGHT)


class TestFatigueUser:
    def test_first_answer_is_always_truthful(self):
        for seed in range(10):
            user = FatigueUser(
                np.array([0.9, 0.1]), fatigue_rate=0.5, rng=seed
            )
            assert user.prefers(LEFT, RIGHT)

    def test_errors_accumulate_with_fatigue(self):
        user = FatigueUser(
            np.array([0.9, 0.1]), fatigue_rate=0.1, max_error=0.4, rng=3
        )
        for _ in range(200):
            user.prefers(LEFT, RIGHT)
        assert user.mistakes_made > 0

    def test_zero_rate_never_errs(self):
        user = FatigueUser(np.array([0.9, 0.1]), fatigue_rate=0.0, rng=3)
        for _ in range(100):
            assert user.prefers(LEFT, RIGHT)
        assert user.mistakes_made == 0

    def test_rejects_half_or_more_max_error(self):
        with pytest.raises(ValueError):
            FatigueUser(np.array([0.9, 0.1]), max_error=0.5)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            FatigueUser(np.array([0.9, 0.1]), fatigue_rate=-0.1)


class TestDriftingUser:
    def test_zero_drift_is_an_oracle(self):
        user = DriftingUser(np.array([0.9, 0.1]), drift=0.0, rng=5)
        for _ in range(20):
            assert user.prefers(LEFT, RIGHT)
        np.testing.assert_allclose(user.utility, [0.9, 0.1])

    def test_utility_stays_on_simplex_while_drifting(self):
        user = DriftingUser(np.array([0.5, 0.3, 0.2]), drift=0.2, rng=5)
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([0.0, 1.0, 0.0])
        for _ in range(50):
            user.prefers(p, q)
            u = user.utility
            assert np.all(u >= -1e-12)
            assert float(u.sum()) == pytest.approx(1.0)

    def test_initial_utility_is_preserved(self):
        # The drift walks a copy: the caller's starting vector stays.
        initial = np.array([0.9, 0.1])
        user = DriftingUser(initial, drift=0.3, rng=5)
        for _ in range(20):
            user.prefers(LEFT, RIGHT)
        np.testing.assert_allclose(initial, [0.9, 0.1])
        assert not np.allclose(user.utility, initial)


class TestAbstainingUser:
    def test_abstains_inside_the_margin(self):
        user = AbstainingUser(np.array([0.5, 0.5]), margin=0.1)
        assert user.compare(np.array([0.5, 0.5]), np.array([0.51, 0.49])) is None
        assert user.abstentions == 1

    def test_decides_outside_the_margin(self):
        user = AbstainingUser(np.array([0.9, 0.1]), margin=0.05)
        assert user.compare(LEFT, RIGHT) is True
        assert user.compare(RIGHT, LEFT) is False
        assert user.abstentions == 0

    def test_prefers_still_forces_a_choice(self):
        user = AbstainingUser(np.array([0.5, 0.5]), margin=1.0)
        assert user.prefers(LEFT, RIGHT)


class TestAskUser:
    def test_plain_user_gets_one_prefers_call(self):
        user = OracleUser(np.array([0.9, 0.1]))
        answer, abstained = ask_user(user, question())
        assert answer is True
        assert abstained == 0
        assert user.questions_asked == 1

    def test_abstainer_is_reasked_then_forced(self):
        user = AbstainingUser(np.array([0.5, 0.5]), margin=1.0)
        answer, abstained = ask_user(user, question(), max_reasks=2)
        assert answer is True  # forced truthful tie-break
        assert abstained == 3  # 1 + max_reasks abstentions
        # 3 compare calls + 1 forced prefers call
        assert user.questions_asked == 4

    def test_decisive_compare_answers_immediately(self):
        user = AbstainingUser(np.array([0.9, 0.1]), margin=0.01)
        answer, abstained = ask_user(user, question())
        assert answer is True
        assert abstained == 0
        assert user.questions_asked == 1


class TestRegistry:
    def test_all_models_registered(self):
        names = user_model_names()
        for expected in (
            "oracle",
            "noisy",
            "persona",
            "fatigue",
            "drifting",
            "abstaining",
        ):
            assert expected in names

    def test_canonical_normalises_case(self):
        assert canonical_user_model("  Oracle ") == "oracle"

    def test_unknown_model_lists_known_ones(self):
        with pytest.raises(ConfigurationError, match="oracle"):
            canonical_user_model("telepathic")

    @pytest.mark.parametrize("model", ["oracle", "abstaining"])
    def test_rng_free_models_never_draw(self, model):
        user = make_user(model, np.array([0.6, 0.4]))
        assert user.prefers(LEFT, RIGHT)

    @pytest.mark.parametrize(
        "model", ["noisy", "persona", "fatigue", "drifting"]
    )
    def test_seeded_models_reproduce(self, model):
        utility = np.array([0.6, 0.4])
        a = make_user(model, utility, rng=11, noise=0.3)
        b = make_user(model, utility, rng=11, noise=0.3)
        for _ in range(30):
            assert a.prefers(LEFT, RIGHT) == b.prefers(LEFT, RIGHT)

    def test_params_pass_through(self):
        user = make_user(
            "abstaining", np.array([0.5, 0.5]), margin=0.5
        )
        assert user.margin == 0.5


class TestStateRoundTrip:
    @pytest.mark.parametrize(
        "model", ["oracle", "noisy", "persona", "fatigue", "drifting", "abstaining"]
    )
    def test_capture_restore_resumes_the_same_stream(self, model):
        utility = np.array([0.55, 0.45])
        rng = np.random.default_rng(99)
        points = rng.dirichlet(np.ones(2), size=(40, 2))
        user = make_user(model, utility, rng=21, noise=0.3)
        twin = make_user(model, utility, rng=22, noise=0.3)
        for p, q in points[:15]:
            user.prefers(p, q)
        restore_user_state(twin, capture_user_state(user))
        for p, q in points[15:]:
            assert user.prefers(p, q) == twin.prefers(p, q)
        assert user.questions_asked == twin.questions_asked

    def test_mismatched_model_is_rejected(self):
        oracle = OracleUser(np.array([0.5, 0.5]))
        drifting = DriftingUser(np.array([0.5, 0.5]), rng=0)
        with pytest.raises(PersistenceError):
            restore_user_state(oracle, capture_user_state(drifting))

    def test_stateless_user_captures_none(self):
        class Minimal:
            def prefers(self, p_i, p_j):
                return True

        assert capture_user_state(Minimal()) is None
        restore_user_state(Minimal(), None)  # no-op

    def test_stateless_user_cannot_restore_state(self):
        class Minimal:
            def prefers(self, p_i, p_j):
                return True

        with pytest.raises(ConfigurationError):
            restore_user_state(Minimal(), {"model": "OracleUser"})
