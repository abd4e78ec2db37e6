"""Tests for the Adaptive preference-learning baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import AdaptiveSession, UHRandomSession
from repro.core import run_session
from repro.errors import ConfigurationError
from repro.eval.metrics import session_regret
from repro.geometry import lp
from repro.users import OracleUser
from repro.utils import rng as rng_state


class TestConstruction:
    def test_invalid_epsilon(self, small_anti_3d):
        with pytest.raises(ConfigurationError):
            AdaptiveSession(small_anti_3d, epsilon=0.0)

    def test_family(self, small_anti_3d):
        assert AdaptiveSession(small_anti_3d, rng=0).family == "adaptive"


class TestBehaviour:
    def test_learns_the_utility_vector(self, small_anti_3d):
        u = np.array([0.5, 0.3, 0.2])
        session = AdaptiveSession(small_anti_3d, epsilon=0.1, rng=1)
        result = run_session(session, OracleUser(u), max_rounds=500)
        if result.truncated:
            pytest.skip("dataset too small to localise the vector")
        estimate = session.estimated_utility()
        # The whole point of Adaptive: the *vector* is learned well.
        assert np.linalg.norm(estimate - u) <= 0.25

    def test_regret_is_low(self, small_anti_3d, test_utilities_3d):
        for u in test_utilities_3d:
            user = OracleUser(u)
            result = run_session(
                AdaptiveSession(small_anti_3d, epsilon=0.1, rng=2),
                user,
                max_rounds=500,
            )
            assert session_regret(small_anti_3d, result, user) <= 0.1 + 1e-6

    def test_asks_more_than_regret_focused_methods(
        self, small_anti_3d, test_utilities_3d
    ):
        """The paper's critique: deriving preferences costs extra rounds."""
        adaptive_rounds = []
        uh_rounds = []
        for seed, u in enumerate(test_utilities_3d):
            adaptive_rounds.append(
                run_session(
                    AdaptiveSession(small_anti_3d, epsilon=0.1, rng=seed),
                    OracleUser(u),
                    max_rounds=500,
                ).rounds
            )
            uh_rounds.append(
                run_session(
                    UHRandomSession(small_anti_3d, epsilon=0.1, rng=seed),
                    OracleUser(u),
                ).rounds
            )
        assert np.mean(adaptive_rounds) >= np.mean(uh_rounds) - 1.0

    def test_stops_when_no_informative_pair_remains(self):
        """On a tiny dataset the vector cannot be localised; must stop."""
        from repro.data.datasets import Dataset

        tiny = Dataset(
            np.array([[1.0, 0.2], [0.2, 1.0], [0.6, 0.7]]), name="tiny"
        )
        result = run_session(
            AdaptiveSession(tiny, epsilon=0.05, rng=0),
            OracleUser(np.array([0.5, 0.5])),
            max_rounds=100,
        )
        assert not result.truncated

    def test_halfspaces_exposed(self, small_anti_3d):
        session = AdaptiveSession(small_anti_3d, rng=3)
        assert session.halfspaces == ()


class TestWitnessReplay:
    """Witness certificates leave ``_select_pair`` unchanged, round by
    round, against a reference with the witness set emptied."""

    @pytest.mark.parametrize(
        "fixture, utility",
        [
            ("small_anti_3d", [0.5, 0.3, 0.2]),
            ("highd_anti_8d", [0.05, 0.2, 0.1, 0.15, 0.1, 0.05, 0.25, 0.1]),
        ],
    )
    def test_same_pair_every_round(self, request, fixture, utility):
        dataset = request.getfixturevalue(fixture)
        session = AdaptiveSession(dataset, epsilon=0.05, rng=9)
        select = session._select_pair
        urange = session.utility_range
        solves = {"reference": 0, "witnessed": 0}

        def checked():
            saved = rng_state.get_state(session._rng)
            flag = session._no_progress
            witnesses, urange._witnesses = urange._witnesses, {}
            before = lp.solve_count()
            expected = select()
            solves["reference"] += lp.solve_count() - before
            expected_flag = session._no_progress
            expected_rng = rng_state.get_state(session._rng)
            urange._witnesses = witnesses
            rng_state.set_state(session._rng, saved)
            session._no_progress = flag
            before = lp.solve_count()
            actual = select()
            solves["witnessed"] += lp.solve_count() - before
            assert actual == expected
            assert session._no_progress == expected_flag
            assert rng_state.get_state(session._rng) == expected_rng
            return actual

        session._select_pair = checked
        result = run_session(
            session, OracleUser(np.array(utility)), max_rounds=40
        )
        assert result.rounds > 3
        # The certificates did replace LPs.
        assert solves["witnessed"] < solves["reference"]
