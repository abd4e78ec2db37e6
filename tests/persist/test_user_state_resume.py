"""Golden resume for the user-model zoo: the *human* round-trips too.

The classic golden suite proves the algorithm resumes bit-identically;
these cases additionally checkpoint the simulated user (drift RNG,
fatigue counter, persona stream, abstention count) through
``capture_session(user=...)`` and restore it into a freshly-constructed
user, requiring the joint (algorithm, user) system to reproduce the
uninterrupted run's remaining transcript exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.session import ask_user
from repro.data.utility import sample_training_utilities
from repro.persist import FileSessionStore, capture_session, restore_session
from repro.registry import make_session
from repro.serve.scheduler import ContinuousEngine
from repro.users import make_user

ZOO = ("noisy", "persona", "fatigue", "drifting", "abstaining")
EPSILON = 0.1
ROUND_CAP = 40
CHECKPOINT_AT = 2


def _fresh_user(model: str, seed: int):
    utility = sample_training_utilities(3, 1, rng=1_000 + seed)[0]
    return make_user(model, utility, rng=2_000 + seed, noise=0.3)


def _drive(session, user, *, rounds=None, cap=ROUND_CAP):
    """Drive through ``ask_user`` (exercising abstentions); log each round."""
    transcript = []
    while not session.finished and session.rounds < cap:
        if rounds is not None and len(transcript) >= rounds:
            break
        question = session.pending_question or session.next_question()
        answer, abstained = ask_user(user, question)
        session.abstentions += abstained
        session.observe(answer)
        transcript.append(
            (session.rounds, question.index_i, question.index_j, answer)
        )
    return transcript


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("model", ZOO)
@pytest.mark.parametrize("family", ("uh-random", "uh-simplex"))
def test_zoo_resume_is_bit_identical(
    family, model, seed, small_anti_3d, tmp_path
):
    reference = make_session(family, small_anti_3d, EPSILON, rng=100 + seed)
    reference_log = _drive(reference, _fresh_user(model, seed))
    reference_rec = reference.recommend()

    replay = make_session(family, small_anti_3d, EPSILON, rng=100 + seed)
    user = _fresh_user(model, seed)
    head = _drive(replay, user, rounds=CHECKPOINT_AT)
    store = FileSessionStore(tmp_path / "store")
    store.put(capture_session(replay, session_id="zoo", user=user))
    del replay, user  # the resumed pair must not share anything live

    snapshot = store.get("zoo")
    assert snapshot.user_state is not None
    resumed = restore_session(snapshot)
    # A fresh, identically-constructed user restored to mid-stream state.
    resumed_user = _fresh_user(model, seed)
    from repro.users import restore_user_state

    restore_user_state(resumed_user, snapshot.user_state)
    tail = _drive(resumed, resumed_user)

    assert head + tail == reference_log
    assert resumed.rounds == reference.rounds
    assert resumed.recommend() == reference_rec


@pytest.mark.parametrize("model", ("drifting", "abstaining"))
def test_resumed_spec_restores_the_user_through_the_engine(
    model, small_anti_3d, tmp_path
):
    """End to end through the serving engine: checkpoint a mid-flight
    (session, user) pair, rebuild both via resumed_spec, and finish on
    the engine — matching the uninterrupted engine run exactly."""
    from repro.persist import resumed_spec
    from repro.serve.spec import SessionSpec

    seed = 4

    def spec(user):
        return SessionSpec(
            factory=lambda: make_session(
                "uh-random", small_anti_3d, EPSILON, rng=100 + seed
            ),
            user=user,
        )

    with ContinuousEngine(max_rounds=ROUND_CAP) as engine:
        [reference] = engine.run([spec(_fresh_user(model, seed))])

    interrupted = make_session(
        "uh-random", small_anti_3d, EPSILON, rng=100 + seed
    )
    user = _fresh_user(model, seed)
    _drive(interrupted, user, rounds=CHECKPOINT_AT)
    store = FileSessionStore(tmp_path / "store")
    store.put(capture_session(interrupted, session_id="mid", user=user))

    snapshot = store.get("mid")
    resumed_user = _fresh_user(model, seed)
    resumed = resumed_spec(snapshot, resumed_user)
    with ContinuousEngine(max_rounds=ROUND_CAP) as engine:
        [finished] = engine.run([resumed])

    assert finished.recommendation_index == reference.recommendation_index
    assert finished.status == reference.status
    np.testing.assert_array_equal(
        finished.recommendation, reference.recommendation
    )


def test_abstention_counter_round_trips(small_anti_3d, tmp_path):
    session = make_session("uh-random", small_anti_3d, EPSILON, rng=7)
    user = _fresh_user("abstaining", 0)
    _drive(session, user, rounds=6)
    store = FileSessionStore(tmp_path / "store")
    store.put(capture_session(session, session_id="abst", user=user))
    snapshot = store.get("abst")
    resumed = restore_session(snapshot)
    assert resumed.abstentions == session.abstentions
    assert snapshot.user_state["abstentions"] == user.abstentions
