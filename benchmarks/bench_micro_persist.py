"""Micro-benchmarks of the session-snapshot codec and the file store.

Not a paper figure.  The HTTP service checkpoints after every answer, so
each user wait includes one snapshot encode and one atomic file write,
and each resume one file read and decode.  These time those steps on a
mid-session UH-Random snapshot of the ``http-ckpt`` ladder workload's
dataset (``anti:300:3``, epsilon 0.1, three of the session's five
rounds answered, transcript included):

* encode (:func:`~repro.persist.snapshot_to_bytes`),
* decode (:func:`~repro.persist.snapshot_from_bytes`),
* one :meth:`~repro.persist.FileSessionStore.put` (encode + temp file +
  ``os.replace``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.session import TranscriptEntry
from repro.data import synthetic_dataset
from repro.data.utility import sample_training_utilities
from repro.persist import (
    FileSessionStore,
    capture_session,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.registry import make_session
from repro.users import OracleUser


@pytest.fixture(scope="module")
def snapshot():
    dataset = synthetic_dataset("anti", 300, 3, rng=0)
    session = make_session("uh-random", dataset, 0.1, rng=0)
    user = OracleUser(sample_training_utilities(3, 1, rng=10)[0])
    transcript = []
    for _ in range(3):
        question = session.next_question()
        answer = bool(user.prefers(question.p_i, question.p_j))
        session.observe(answer)
        transcript.append(
            TranscriptEntry(
                round_number=session.rounds,
                index_i=question.index_i,
                index_j=question.index_j,
                prefers_first=answer,
            )
        )
    assert not session.finished
    return capture_session(
        session, session_id="bench", transcript=tuple(transcript)
    )


def test_micro_snapshot_encode(snapshot, benchmark):
    blob = benchmark(snapshot_to_bytes, snapshot)
    assert snapshot_from_bytes(blob).rounds == snapshot.rounds


def test_micro_snapshot_decode(snapshot, benchmark):
    blob = snapshot_to_bytes(snapshot)
    loaded = benchmark(snapshot_from_bytes, blob)
    assert loaded.transcript == snapshot.transcript
    np.testing.assert_array_equal(
        loaded.dataset.points, snapshot.dataset.points
    )


def test_micro_file_store_put(snapshot, benchmark, tmp_path):
    store = FileSessionStore(tmp_path / "store")
    benchmark(store.put, snapshot)
    assert store.get("bench").rounds == snapshot.rounds
