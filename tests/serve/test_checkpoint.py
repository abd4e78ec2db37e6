"""Engine-level checkpoint/resume.

Covers the :mod:`repro.persist` integration of the serving layer:

* ``ContinuousEngine.checkpoint(ticket)`` / ``.resume(...)`` — a
  session interrupted mid-flight (even across engine instances, i.e. a
  simulated process restart) finishes bit-identically;
* ``ShardedDispatcher(store=...)`` — a checkpoint after every tick
  inside each wave's workers, resumable by a fresh engine.

The asyncio side of serving (oracle sessions resolved by the HTTP
service's collector) is covered in ``tests/server/test_app.py``.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.baselines import UHRandomSession
from repro.core.session import run_session
from repro.data.utility import sample_training_utilities
from repro.errors import PersistenceError
from repro.persist import FileSessionStore, MemorySessionStore, resumed_spec
from repro.serve import ContinuousEngine, SessionSpec, ShardedDispatcher
from repro.users import OracleUser

EPSILON = 0.1

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="ShardedDispatcher needs the fork start method",
)


def _user(seed=0):
    return OracleUser(sample_training_utilities(3, 1, rng=50 + seed)[0])


def _spec(dataset, seed=0, session_id=None):
    tags = {"session_id": session_id} if session_id else {}
    return SessionSpec(
        factory=lambda: UHRandomSession(dataset, EPSILON, rng=9 + seed),
        user=_user(seed),
        seed=seed,
        tags=tags,
    )


class TestContinuousCheckpoint:
    def test_resume_across_engine_instances(self, small_anti_3d):
        reference = run_session(
            UHRandomSession(small_anti_3d, EPSILON, rng=9), _user()
        )

        store = MemorySessionStore()
        with ContinuousEngine(store=store) as engine:
            ticket = engine.submit(_spec(small_anti_3d, session_id="s1"))
            for _ in range(3):
                engine.step()
            engine.checkpoint(ticket)
        assert "s1" in store  # persisted before the "crash"

        with ContinuousEngine(store=store) as fresh:
            fresh.resume("s1", _user())
            (result,) = fresh.drain()
        assert result.rounds == reference.rounds
        assert result.recommendation_index == reference.recommendation_index
        np.testing.assert_array_equal(
            result.recommendation, reference.recommendation
        )

    def test_checkpoint_after_resume_has_contiguous_transcript(
        self, small_anti_3d
    ):
        store = MemorySessionStore()
        with ContinuousEngine(store=store) as engine:
            ticket = engine.submit(_spec(small_anti_3d, session_id="s2"))
            for _ in range(2):
                engine.step()
            engine.checkpoint(ticket)

        with ContinuousEngine(store=store) as fresh:
            ticket = fresh.resume("s2", _user())
            fresh.step()
            snapshot = fresh.checkpoint(ticket)
            fresh.drain()
        rounds = [entry.round_number for entry in snapshot.transcript]
        assert rounds == list(range(1, len(rounds) + 1))

    def test_resume_by_id_needs_a_store(self, small_anti_3d):
        with ContinuousEngine() as engine:
            with pytest.raises(PersistenceError, match="store"):
                engine.resume("anything", _user())

    def test_checkpoint_unknown_ticket_raises(self, small_anti_3d):
        with ContinuousEngine() as engine:
            with pytest.raises(PersistenceError, match="no live session"):
                engine.checkpoint(12345)

    def test_checkpoint_before_admission_raises(self, small_anti_3d):
        with ContinuousEngine() as engine:
            ticket = engine.submit(_spec(small_anti_3d))
            with pytest.raises(PersistenceError, match="not been admitted"):
                engine.checkpoint(ticket)
            engine.drain()


class TestWaveCheckpoint:
    """A dispatcher wave's workers checkpoint after every tick into the
    shared store."""

    @needs_fork
    def test_periodic_checkpoints_are_written(self, small_anti_3d, tmp_path):
        store = FileSessionStore(tmp_path / "ckpts")
        with ShardedDispatcher(procs=1, store=store) as dispatcher:
            dispatcher.submit(_spec(small_anti_3d, session_id="wave-1"))
            dispatcher.drain()
        snapshot = store.get("wave-1")
        assert snapshot.rounds > 0
        assert snapshot.family == "uh-random"

    @needs_fork
    def test_truncated_run_resumes_identically(self, small_anti_3d, tmp_path):
        reference = run_session(
            UHRandomSession(small_anti_3d, EPSILON, rng=9), _user()
        )

        store = FileSessionStore(tmp_path / "ckpts")
        with ShardedDispatcher(
            procs=1, max_rounds=3, store=store
        ) as short:
            short.submit(_spec(small_anti_3d, session_id="wave-2"))
            (truncated,) = short.drain()
        assert truncated.truncated

        snapshot = store.get("wave-2")
        with ContinuousEngine() as engine:
            (result,) = engine.run([resumed_spec(snapshot, _user())])
        assert result.rounds == reference.rounds
        assert result.recommendation_index == reference.recommendation_index

