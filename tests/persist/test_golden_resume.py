"""Golden resume suite: interrupt/resume is bit-identical, every family.

For each (family, user kind, seed) case a *reference* session runs
uninterrupted while an identically-seeded *replay* session is stopped at
round ``k``, checkpointed through a file-backed store (real snapshot bytes on
disk, as a crashed process would leave behind), restored, and driven to
completion.  The resumed session must produce exactly the reference's
remaining transcript and recommendation — covering all five baseline
families and both RL families, truthful and noisy users.

The RL cases restore against an agent *reloaded from disk* rather than
the in-memory fixture, simulating a fresh process following
``snapshot.agent_ref``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.utility import sample_training_utilities
from repro.persist import FileSessionStore, capture_session, restore_session
from repro.registry import make_session
from repro.rl.serialization import load_agent, save_agent
from repro.users import NoisyUser, OracleUser

BASELINES = (
    "uh-random",
    "uh-simplex",
    "single-pass",
    "utility-approx",
    "adaptive",
)
BASELINE_SEEDS = (0, 1, 2, 3)
RL_SEEDS = (0, 1, 2)
USER_KINDS = ("oracle", "noisy")
EPSILON = 0.1
ROUND_CAP = 40
CHECKPOINT_AT = 2


def _make_user(kind: str, dimension: int, seed: int):
    utility = sample_training_utilities(dimension, 1, rng=1_000 + seed)[0]
    if kind == "oracle":
        return OracleUser(utility)
    return NoisyUser(utility, error_rate=0.2, rng=2_000 + seed)


def _drive(session, user, *, rounds=None, cap=ROUND_CAP):
    """Answer up to ``rounds`` questions; returns (round, i, j, answer)s."""
    transcript = []
    while not session.finished and session.rounds < cap:
        if rounds is not None and len(transcript) >= rounds:
            break
        question = session.pending_question or session.next_question()
        answer = bool(user.prefers(question.p_i, question.p_j))
        session.observe(answer)
        transcript.append(
            (session.rounds, question.index_i, question.index_j, answer)
        )
    return transcript


def _assert_identical_resume(make_fresh, user_kind, seed, tmp_path, **restore):
    dimension = restore.get("dimension", 3)
    reference = make_fresh(seed)
    reference_log = _drive(reference, _make_user(user_kind, dimension, seed))
    reference_rec = reference.recommend()

    # Replay: same construction, stop at round k, checkpoint to disk.
    replay = make_fresh(seed)
    user = _make_user(user_kind, dimension, seed)
    head = _drive(replay, user, rounds=CHECKPOINT_AT)
    store = FileSessionStore(tmp_path / "store")
    store.put(
        capture_session(
            replay, session_id=f"golden-{seed}", agent_ref=restore.get("ref")
        )
    )
    del replay  # the resumed copy must not share anything live

    snapshot = store.get(f"golden-{seed}")
    resumed = restore_session(
        snapshot,
        agent=restore.get("agent"),
    )
    tail = _drive(resumed, user)

    assert head + tail == reference_log, (
        f"resumed transcript diverged after round {CHECKPOINT_AT}"
    )
    assert resumed.rounds == reference.rounds
    assert resumed.finished == reference.finished
    assert resumed.recommend() == reference_rec
    resumed_point = np.asarray(
        resumed.dataset.points[resumed.recommend()], dtype=float
    )
    reference_point = np.asarray(
        reference.dataset.points[reference_rec], dtype=float
    )
    np.testing.assert_array_equal(resumed_point, reference_point)


@pytest.mark.parametrize("seed", BASELINE_SEEDS)
@pytest.mark.parametrize("user_kind", USER_KINDS)
@pytest.mark.parametrize("family", BASELINES)
def test_baseline_resume_is_bit_identical(
    family, user_kind, seed, small_anti_3d, tmp_path
):
    def make_fresh(seed):
        return make_session(family, small_anti_3d, EPSILON, rng=100 + seed)

    _assert_identical_resume(make_fresh, user_kind, seed, tmp_path)


@pytest.fixture(scope="module")
def reloaded_agents(trained_ea_3d, trained_aa_3d, tmp_path_factory):
    """Agents saved and reloaded from disk, as a fresh process would."""
    root = tmp_path_factory.mktemp("agents")
    out = {}
    for name, agent in (("ea", trained_ea_3d), ("aa", trained_aa_3d)):
        path = save_agent(agent, root / f"{name}.npz")
        out[name] = (str(path), load_agent(path))
    return out


@pytest.mark.parametrize("seed", RL_SEEDS)
@pytest.mark.parametrize("user_kind", USER_KINDS)
@pytest.mark.parametrize("family", ("ea", "aa"))
def test_rl_resume_is_bit_identical(
    family,
    user_kind,
    seed,
    trained_ea_3d,
    trained_aa_3d,
    reloaded_agents,
    tmp_path,
):
    trained = {"ea": trained_ea_3d, "aa": trained_aa_3d}[family]
    ref, fresh_agent = reloaded_agents[family]

    def make_fresh(seed):
        return trained.new_session(rng=100 + seed)

    _assert_identical_resume(
        make_fresh,
        user_kind,
        seed,
        tmp_path,
        agent=fresh_agent,
        ref=ref,
    )


def test_agent_ref_travels_with_the_snapshot(
    trained_ea_3d, reloaded_agents, tmp_path
):
    ref, _ = reloaded_agents["ea"]
    session = trained_ea_3d.new_session(rng=1)
    store = FileSessionStore(tmp_path / "store")
    store.put(capture_session(session, session_id="with-ref", agent_ref=ref))
    snapshot = store.get("with-ref")
    assert snapshot.agent_ref == ref
    # The recorded reference is sufficient to reload the right agent.
    resumed = restore_session(snapshot, agent=load_agent(snapshot.agent_ref))
    assert resumed.rounds == session.rounds
