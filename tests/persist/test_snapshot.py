"""Unit tests for the snapshot codec and capture/restore logic."""

from __future__ import annotations

import io
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.session import TranscriptEntry
from repro.data import synthetic_dataset
from repro.data.utility import sample_training_utilities
from repro.errors import PersistenceError
from repro.persist import (
    SessionSnapshot,
    capture_session,
    load_snapshot,
    restore_session,
    save_snapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.persist.snapshot import SNAPSHOT_SUFFIX
from repro.registry import make_session
from repro.users import OracleUser


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset("anti", 200, 3, rng=7)


@pytest.fixture(scope="module")
def utility():
    return sample_training_utilities(3, 1, rng=11)[0]


def _drive(session, user, rounds):
    """Answer ``rounds`` questions; returns the transcript entries."""
    transcript = []
    for _ in range(rounds):
        if session.finished:
            break
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
    return transcript


def _mid_session(dataset, utility, family="uh-random", rounds=2):
    session = make_session(family, dataset, 0.1, rng=42)
    transcript = _drive(session, OracleUser(utility), rounds)
    return session, transcript


class TestByteCodec:
    def test_round_trip_preserves_identity(self, dataset, utility):
        session, transcript = _mid_session(dataset, utility)
        snapshot = capture_session(
            session, session_id="t-1", transcript=tuple(transcript)
        )
        loaded = snapshot_from_bytes(snapshot_to_bytes(snapshot))
        assert loaded.session_id == "t-1"
        assert loaded.family == "uh-random"
        assert loaded.epsilon == pytest.approx(0.1)
        assert loaded.rounds == snapshot.rounds
        assert loaded.transcript == tuple(transcript)
        assert loaded.agent_ref is None
        assert loaded.dataset_meta == snapshot.dataset_meta

    def test_state_arrays_are_bit_exact(self, dataset, utility):
        session, _ = _mid_session(dataset, utility)
        snapshot = capture_session(session, session_id="t-2")
        loaded = snapshot_from_bytes(snapshot_to_bytes(snapshot))
        resumed = restore_session(loaded)
        original_state = session.get_state()
        resumed_state = resumed.get_state()

        def assert_equal(a, b):
            assert type(a) is type(b) or (
                isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            )
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
            elif isinstance(a, dict):
                assert a.keys() == b.keys()
                for key in a:
                    assert_equal(a[key], b[key])
            elif isinstance(a, (list, tuple)):
                assert len(a) == len(b)
                for x, y in zip(a, b):
                    assert_equal(x, y)
            else:
                assert a == b

        assert_equal(original_state, resumed_state)

    def test_file_round_trip_appends_suffix(
        self, dataset, utility, tmp_path
    ):
        session, _ = _mid_session(dataset, utility)
        snapshot = capture_session(session, session_id="t-3")
        written = save_snapshot(snapshot, tmp_path / "snap")
        assert written == tmp_path / f"snap{SNAPSHOT_SUFFIX}"
        assert save_snapshot(snapshot, written) == written
        loaded = load_snapshot(written)
        assert loaded.session_id == "t-3"
        assert loaded.rounds == snapshot.rounds

    def test_binary_io_round_trip(self, dataset, utility):
        session, _ = _mid_session(dataset, utility)
        snapshot = capture_session(session, session_id="t-4")
        buffer = io.BytesIO()
        save_snapshot(snapshot, buffer)
        buffer.seek(0)
        assert load_snapshot(buffer).session_id == "t-4"


_PREFIX = struct.Struct("<8sII")  # magic, CRC32 of the body, header length


def _split(blob: bytes) -> tuple[bytes, dict, bytes]:
    """An encoded snapshot as (magic, JSON header, array buffer)."""
    magic, _crc, length = _PREFIX.unpack_from(blob)
    header = json.loads(blob[_PREFIX.size : _PREFIX.size + length])
    return magic, header, blob[_PREFIX.size + length :]


def _join(magic: bytes, header: dict, buffer: bytes) -> bytes:
    """Inverse of :func:`_split`, with a freshly computed CRC."""
    header_bytes = json.dumps(header).encode("utf-8")
    body = struct.pack("<I", len(header_bytes)) + header_bytes + buffer
    return magic + struct.pack("<I", zlib.crc32(body)) + body


def _tamper_meta(blob: bytes, **overrides) -> bytes:
    """Rewrite header fields of an encoded snapshot; the CRC still holds."""
    magic, header, buffer = _split(blob)
    header.update(overrides)
    return _join(magic, header, buffer)


def _tamper_array(blob: bytes, key: str, descriptor: list) -> bytes:
    """Replace the descriptor of array ``key``; the CRC still holds."""
    magic, header, buffer = _split(blob)
    assert key in header["arrays"]
    header["arrays"][key] = descriptor
    return _join(magic, header, buffer)


@pytest.fixture(scope="module")
def blob(dataset, utility):
    """An encoded mid-session uh-random snapshot with a transcript."""
    session, transcript = _mid_session(dataset, utility)
    return snapshot_to_bytes(
        capture_session(session, session_id="b", transcript=tuple(transcript))
    )


class TestFormatGates:
    def test_future_version_is_rejected(self, blob):
        bad = _tamper_meta(blob, format_version=999)
        with pytest.raises(PersistenceError, match="version"):
            snapshot_from_bytes(bad)

    def test_wrong_kind_is_rejected(self, blob):
        bad = _tamper_meta(blob, kind="not-a-snapshot")
        with pytest.raises(PersistenceError, match="kind"):
            snapshot_from_bytes(bad)

    def test_garbage_bytes_are_rejected(self):
        with pytest.raises(PersistenceError):
            snapshot_from_bytes(b"definitely not a session snapshot")

    def test_untampered_rewrite_still_loads(self, blob):
        # A rewrite that changes nothing decodes, so every rejection
        # below is the tampered field's doing alone.
        assert snapshot_from_bytes(_tamper_meta(blob)).session_id == "b"

    def test_version_one_npz_blob_is_rejected(self, blob):
        # The layout format_version 1 wrote: a compressed npz archive
        # with a JSON ``meta`` entry.
        _, header, _ = _split(blob)
        old = io.BytesIO()
        np.savez_compressed(
            old,
            meta=np.array(json.dumps({**header, "format_version": 1})),
            transcript_round=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(PersistenceError, match="magic"):
            snapshot_from_bytes(old.getvalue())

    def test_object_dtype_descriptor_is_rejected(self, blob):
        bad = _tamper_array(blob, "a0", ["|O", [1], 0])
        with pytest.raises(PersistenceError, match="object"):
            snapshot_from_bytes(bad)

    @pytest.mark.parametrize(
        "descriptor",
        [
            ["<f8", [1], -8],
            ["<f8", [10**12], 0],
            ["<f8", [-1], 0],
            ["<f8", [1], 0.5],
            ["<f8", 3, 0],
            ["not-a-dtype", [1], 0],
            ["<f8", [1]],
        ],
        ids=[
            "negative-offset",
            "length-past-end",
            "negative-dim",
            "float-offset",
            "scalar-shape",
            "bad-dtype",
            "short-descriptor",
        ],
    )
    def test_malformed_descriptor_is_rejected(self, blob, descriptor):
        with pytest.raises(PersistenceError):
            snapshot_from_bytes(_tamper_array(blob, "a0", descriptor))

    def test_malformed_dataset_is_rejected(self, blob):
        # In range, but a single attribute: Dataset refuses it.
        bad = _tamper_array(blob, "dataset_points", ["<f8", [3, 1], 0])
        with pytest.raises(PersistenceError):
            snapshot_from_bytes(bad)

    def test_object_arrays_are_refused_at_encode(self):
        snapshot = SessionSnapshot(
            session_id="obj",
            family="uh-random",
            epsilon=0.1,
            rounds=0,
            state={"bad": np.array([{"a": 1}], dtype=object)},
        )
        with pytest.raises(PersistenceError, match="dtype"):
            snapshot_to_bytes(snapshot)

    def test_offset_just_past_the_buffer_is_rejected(self, blob):
        _, header, buffer = _split(blob)
        dtype, shape, _ = header["arrays"]["a0"]
        size = int(np.prod(shape)) * np.dtype(dtype).itemsize
        assert size > 0
        last = len(buffer) - size
        snapshot_from_bytes(_tamper_array(blob, "a0", [dtype, shape, last]))
        outside = _tamper_array(blob, "a0", [dtype, shape, last + 1])
        with pytest.raises(PersistenceError, match="outside"):
            snapshot_from_bytes(outside)


class TestDamagedBlobs:
    """Every damaged blob raises PersistenceError, never a raw error."""

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_every_damage_raises_persistence_error(self, blob, damage):
        if damage == "flip":
            cases = [
                blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1 :]
                for at in range(len(blob))
            ]
        else:
            cases = [blob[:length] for length in range(len(blob))]
        escaped = []
        for at, damaged in enumerate(cases):
            try:
                snapshot_from_bytes(damaged)
            except PersistenceError:
                continue
            except Exception as error:  # noqa: BLE001
                escaped.append((at, repr(error)))
            else:
                escaped.append((at, "loaded without error"))
        assert escaped == []


# -- property: arrays of every shape and layout round-trip bit-exact ---------

_DTYPES = st.sampled_from(
    [np.dtype(name) for name in ("?", "<i8", ">i8", "<f8", ">f8")]
)


@st.composite
def _arrays(draw):
    array = draw(
        hnp.arrays(
            _DTYPES,
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        )
    )
    if array.ndim and draw(st.booleans()):
        array = array[::-1, ...][::2]  # a strided, non-contiguous view
    if array.ndim > 1 and draw(st.booleans()):
        array = array.T
    return array


_KEYS = st.text("abcdefgh", min_size=1, max_size=3)
_TREES = st.recursive(
    _arrays() | st.integers(-(2**70), 2**70) | st.booleans() | st.none(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_KEYS, children, max_size=3),
    max_leaves=8,
)


def _assert_same_tree(original, decoded):
    if isinstance(original, np.ndarray):
        assert isinstance(decoded, np.ndarray)
        assert decoded.dtype == original.dtype
        assert decoded.shape == original.shape
        assert decoded.tobytes() == original.tobytes()
        assert decoded.flags.writeable
    elif isinstance(original, dict):
        assert decoded.keys() == original.keys()
        for key in original:
            _assert_same_tree(original[key], decoded[key])
    elif isinstance(original, list):
        assert len(decoded) == len(original)
        for a, b in zip(original, decoded):
            _assert_same_tree(a, b)
    else:
        assert decoded == original and type(decoded) is type(original)


class TestArrayRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(state=st.dictionaries(_KEYS, _TREES, max_size=4))
    def test_state_trees_round_trip_bit_exact(self, state):
        snapshot = SessionSnapshot(
            session_id="prop",
            family="uh-random",
            epsilon=0.1,
            rounds=0,
            state=state,
            user_state={"nested": [state]},
        )
        blob = snapshot_to_bytes(snapshot)
        decoded = snapshot_from_bytes(blob)
        _assert_same_tree(state, decoded.state)
        _assert_same_tree({"nested": [state]}, decoded.user_state)

    def test_decoded_arrays_do_not_alias_the_blob(self):
        blob = snapshot_to_bytes(
            SessionSnapshot(
                session_id="alias",
                family="uh-random",
                epsilon=0.1,
                rounds=0,
                state={"points": np.arange(6.0).reshape(2, 3)},
            )
        )
        decoded = snapshot_from_bytes(blob).state["points"]
        assert decoded.flags.owndata
        decoded[0, 0] = 99.0
        assert snapshot_from_bytes(blob).state["points"][0, 0] == 0.0


class TestRestoreGuards:
    def test_rl_restore_requires_agent(self):
        snapshot = SessionSnapshot(
            session_id="rl-1",
            family="ea",
            epsilon=0.1,
            rounds=0,
            state={},
            agent_ref="agents/ea.npz",
            dataset_meta={"name": "x", "n": 10, "dimension": 3},
        )
        with pytest.raises(PersistenceError, match="agent"):
            restore_session(snapshot)

    def test_dataset_shape_mismatch_is_rejected(self, dataset, utility):
        session, _ = _mid_session(dataset, utility)
        snapshot = capture_session(session, session_id="m")
        other = synthetic_dataset("anti", 120, 3, rng=9)
        with pytest.raises(PersistenceError, match="does not match"):
            restore_session(snapshot, dataset=other)


class TestMidRoundCapture:
    def test_pending_question_round_trips(self, dataset, utility):
        session, _ = _mid_session(dataset, utility, rounds=2)
        asked = session.next_question()  # ask, do not answer
        snapshot = snapshot_from_bytes(
            snapshot_to_bytes(capture_session(session, session_id="p"))
        )
        resumed = restore_session(snapshot)
        pending = resumed.pending_question
        assert pending is not None
        assert (pending.index_i, pending.index_j) == (
            asked.index_i,
            asked.index_j,
        )
        # Both copies answer the same question and stay in lockstep.
        user = OracleUser(utility)
        answer = bool(user.prefers(asked.p_i, asked.p_j))
        session.observe(answer)
        resumed.observe(answer)
        assert resumed.rounds == session.rounds
        assert resumed.finished == session.finished
