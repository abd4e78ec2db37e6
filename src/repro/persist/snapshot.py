"""The versioned session-snapshot format and capture/restore logic.

A snapshot encodes to one byte string (format version 2), kept as is by
:class:`~repro.persist.store.MemorySessionStore` and written to one
``<id>`` + :data:`SNAPSHOT_SUFFIX` file by
:class:`~repro.persist.store.FileSessionStore`::

    magic        8 bytes   b"\\x89RSNAP\\r\\n"
    crc32        uint32 LE of everything after this field
    header_len   uint32 LE
    header       header_len bytes of UTF-8 JSON
    buffer       every array's raw C-order bytes, back to back

The JSON header holds the format version and ``kind``, the session
identity (id, family, epsilon, round counter, agent reference), the
dataset header, the transcript as ``[round, i, j, answer]`` rows, the
*state tree* — the nested dict produced by
:meth:`repro.core.session.InteractiveAlgorithm.get_state` with every
numpy array replaced by an ``{"__array__": "a<k>"}`` placeholder — and
an ``arrays`` table mapping each array key to ``[dtype.str, shape,
offset]`` in the buffer.  Arrays round-trip bit-exact, byte order
included.  The self-contained baseline families also carry the dataset
(``dataset_points``).  RL snapshots store only the dataset header plus
``agent_ref`` and require the trained agent at restore time (the agent
npz already carries the dataset; duplicating it per session would bloat
every checkpoint).

Decoding checks the magic, the CRC, ``kind`` and ``format_version``
before it trusts anything else, then rejects object dtypes and any
descriptor that points outside the buffer.  Every damaged or foreign
input — a flipped byte, a truncated file, a version-1 npz snapshot —
raises :class:`~repro.errors.PersistenceError`.  Each array is copied
out of the blob, so restored state is writable and does not alias it.

Restoration never replays construction: :func:`restore_session` builds a
fresh session through the registry (constructor side effects — RNG
draws, initial enumerations — happen against a throwaway seed) and then
overwrites the complete mutable state, so the resumed session continues
bit-identically to the uninterrupted one.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO

import numpy as np

from repro.core.session import InteractiveAlgorithm, TranscriptEntry
from repro.data.datasets import Dataset
from repro.errors import DataError, PersistenceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serve.spec import SessionSpec
    from repro.users.oracle import User

_FORMAT_VERSION = 2
_KIND = "session-snapshot"
#: Leading bytes of every encoded snapshot.
_MAGIC = b"\x89RSNAP\r\n"
#: The CRC32 and the header length: little-endian uint32 each.
_LENGTH = struct.Struct("<I")
#: File-name suffix of a stored snapshot.
SNAPSHOT_SUFFIX = ".snap"


@dataclass(frozen=True)
class SessionSnapshot:
    """Everything needed to resume one interactive session.

    Attributes
    ----------
    session_id:
        Caller-chosen identifier; the key under a
        :class:`~repro.persist.store.SessionStore`.
    family:
        Registry name of the algorithm family (``"ea"``, ``"uh-random"``,
        ...), consumed by :func:`restore_session`.
    epsilon:
        The session's regret threshold (needed to rebuild the instance).
    rounds:
        Answered rounds at capture time (mirrors ``state["rounds"]``;
        kept at the top level so stores can report progress without
        decoding the state tree).
    state:
        The :meth:`~repro.core.session.InteractiveAlgorithm.get_state`
        tree: numpy arrays + JSON-able scalars.
    transcript:
        The answered rounds so far, in order.
    agent_ref:
        Opaque reference to the trained agent an RL session runs on
        (typically the path the agent npz was saved to); ``None`` for
        the self-contained baselines.
    dataset:
        The dataset for self-contained families; ``None`` when only the
        header travels (RL families).
    dataset_meta:
        Always-present header ``{"name", "n", "dimension"}`` used to
        validate the dataset/agent supplied at restore time.
    user_state:
        Optional :meth:`get_state` tree of the simulated user the
        session was served against (drift RNG, fatigue counters, ...),
        captured when the user supports checkpointing (see
        :mod:`repro.users.models`).  Applied by :func:`resumed_spec`
        so a resumed run replays against the *same* human.  ``None``
        for stateless callers.
    """

    session_id: str
    family: str
    epsilon: float
    rounds: int
    state: dict[str, Any]
    transcript: tuple[TranscriptEntry, ...] = ()
    agent_ref: str | None = None
    dataset: Dataset | None = None
    dataset_meta: dict[str, Any] = field(default_factory=dict)
    user_state: dict[str, Any] | None = None


# -- capture / restore --------------------------------------------------------


def capture_session(
    algorithm: InteractiveAlgorithm,
    *,
    session_id: str,
    transcript: tuple[TranscriptEntry, ...] | list[TranscriptEntry] = (),
    agent_ref: str | None = None,
    user: "User | None" = None,
) -> SessionSnapshot:
    """Snapshot a live session.

    The family is the session class's ``family`` and the threshold its
    ``epsilon``.  The RL families store only the dataset header (the
    agent carries the dataset); pass ``agent_ref`` so the restore side
    knows which agent to load.  Pass ``user`` to also capture the
    simulated user's state (best-effort: users without ``get_state``
    are silently skipped), so :func:`resumed_spec` can replay against
    the same human.
    """
    from repro.registry import session_needs_agent

    family = algorithm.family
    dataset = algorithm.dataset
    stored_dataset = None if session_needs_agent(family) else dataset
    user_state = None
    if user is not None:
        from repro.users.models import capture_user_state

        user_state = capture_user_state(user)
    return SessionSnapshot(
        session_id=str(session_id),
        family=family,
        epsilon=float(algorithm.epsilon),
        rounds=int(algorithm.rounds),
        state=algorithm.get_state(),
        transcript=tuple(transcript),
        agent_ref=agent_ref,
        dataset=stored_dataset,
        dataset_meta={
            "name": dataset.name,
            "n": dataset.n,
            "dimension": dataset.dimension,
        },
        user_state=user_state,
    )


def restore_session(
    snapshot: SessionSnapshot,
    *,
    agent: Any | None = None,
    dataset: Dataset | None = None,
) -> InteractiveAlgorithm:
    """Rebuild the live session a snapshot describes.

    Baseline families restore self-contained (their dataset travels in
    the snapshot; ``dataset=`` overrides it).  RL families require the
    trained ``agent=`` the session ran on — the same agent object or one
    loaded from ``snapshot.agent_ref`` via
    :func:`repro.rl.serialization.load_agent`.

    The returned instance is mid-session: ``rounds``/``finished``/the
    pending question match capture time exactly, and driving it forward
    reproduces the uninterrupted run bit for bit.
    """
    from repro.registry import make_session, session_needs_agent

    meta = snapshot.dataset_meta
    needs_agent = session_needs_agent(snapshot.family)
    if needs_agent:
        if agent is None:
            raise PersistenceError(
                f"snapshot {snapshot.session_id!r} is an RL session "
                f"({snapshot.family}); pass the trained agent "
                f"(agent_ref={snapshot.agent_ref!r})"
            )
        target = agent.dataset
    else:
        target = dataset if dataset is not None else snapshot.dataset
        if target is None:
            raise PersistenceError(
                f"snapshot {snapshot.session_id!r} carries no dataset; "
                "pass dataset= explicitly"
            )
    if meta and (
        target.n != int(meta["n"])
        or target.dimension != int(meta["dimension"])
    ):
        raise PersistenceError(
            f"dataset {target.name!r} ({target.n} x {target.dimension}) "
            f"does not match snapshot {snapshot.session_id!r} "
            f"({meta['n']} x {meta['dimension']})"
        )
    kwargs = {"agent": agent} if needs_agent else {}
    # rng=0 is a throwaway seed: set_state overwrites the stream.
    algorithm = make_session(
        snapshot.family, target, snapshot.epsilon, rng=0, **kwargs
    )
    algorithm.set_state(snapshot.state)
    return algorithm


def resumed_spec(
    snapshot: SessionSnapshot,
    user: "User",
    *,
    agent: Any | None = None,
    dataset: Dataset | None = None,
    tags: dict[str, object] | None = None,
) -> "SessionSpec":
    """A :class:`~repro.serve.spec.SessionSpec` resuming ``snapshot``.

    Both engines admit the resulting spec mid-session (``resumed=True``
    bypasses their fresh-algorithm check); an engine retry rebuilds from
    the same snapshot, i.e. rolls back to the checkpoint.  The
    snapshot's transcript travels in ``tags["prior_transcript"]`` so a
    later engine checkpoint carries the full history across the gap.

    When the snapshot carries :attr:`SessionSnapshot.user_state`, it is
    applied to ``user`` here (once, eagerly), so the resumed session
    replays against the same simulated human — same RNG stream, same
    fatigue counter, same drifted utility.
    """
    from repro.serve.spec import SessionSpec
    from repro.users.models import restore_user_state

    restore_user_state(user, snapshot.user_state)
    spec_tags: dict[str, object] = {
        "session_id": snapshot.session_id,
        "prior_transcript": snapshot.transcript,
    }
    if tags:
        spec_tags.update(tags)
    return SessionSpec(
        factory=lambda: restore_session(snapshot, agent=agent, dataset=dataset),
        user=user,
        tags=spec_tags,
        resumed=True,
    )


# -- state-tree codec ---------------------------------------------------------


def _flatten(node: Any, arrays: dict[str, np.ndarray]) -> Any:
    """JSON-able mirror of a state tree; arrays lifted into ``arrays``."""
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    if isinstance(node, np.generic):
        return node.item()
    if isinstance(node, np.ndarray):
        key = f"a{len(arrays)}"
        arrays[key] = node
        return {"__array__": key}
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise PersistenceError(
                    f"state dict keys must be strings, got {key!r}"
                )
            out[key] = _flatten(value, arrays)
        return out
    if isinstance(node, (list, tuple)):
        return [_flatten(item, arrays) for item in node]
    raise PersistenceError(
        f"state trees may contain arrays and JSON scalars only, "
        f"got {type(node).__name__}"
    )


def _unflatten(node: Any, archive: Any) -> Any:
    """Inverse of :func:`_flatten` against the decoded arrays."""
    if isinstance(node, dict):
        if set(node) == {"__array__"}:
            return np.array(archive[node["__array__"]])
        return {key: _unflatten(value, archive) for key, value in node.items()}
    if isinstance(node, list):
        return [_unflatten(item, archive) for item in node]
    return node


# -- single-buffer codec -----------------------------------------------------


def _descriptor(array: np.ndarray, offset: int) -> list[Any]:
    """``[dtype.str, shape, offset]`` for one packed array."""
    dtype = array.dtype
    if dtype.hasobject or np.dtype(dtype.str) != dtype:
        raise PersistenceError(
            f"snapshot arrays must have a plain dtype, got {dtype}"
        )
    return [dtype.str, list(array.shape), offset]


def _encode(header: dict[str, Any], arrays: dict[str, np.ndarray]) -> bytes:
    """Pack ``header`` and ``arrays`` into one checksummed blob."""
    chunks: list[bytes] = []
    descriptors: dict[str, list[Any]] = {}
    offset = 0
    for key, array in arrays.items():
        descriptors[key] = _descriptor(array, offset)
        raw = array.tobytes()  # C order, whatever the array's strides
        chunks.append(raw)
        offset += len(raw)
    header = {**header, "arrays": descriptors}
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body = b"".join([_LENGTH.pack(len(header_bytes)), header_bytes, *chunks])
    return _MAGIC + _LENGTH.pack(zlib.crc32(body)) + body


def _array_view(key: str, descriptor: Any, buffer: memoryview) -> np.ndarray:
    """Validate one descriptor; a read-only view of its bytes."""
    dtype_str, shape, offset = descriptor
    dtype = np.dtype(dtype_str)
    if dtype.hasobject:
        raise PersistenceError(f"array {key!r} has an object dtype")
    # type() rather than isinstance(): JSON true/false are bools.
    if type(offset) is not int or any(
        type(dim) is not int or dim < 0 for dim in shape
    ):
        raise PersistenceError(f"array {key!r} has a malformed descriptor")
    count = math.prod(shape)
    if offset < 0 or offset + count * dtype.itemsize > len(buffer):
        raise PersistenceError(
            f"array {key!r} points outside the snapshot's buffer"
        )
    return np.frombuffer(
        buffer, dtype=dtype, count=count, offset=offset
    ).reshape(shape)


def _decode(blob: bytes) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Check ``blob``; its header and read-only views of its arrays."""
    prefix = len(_MAGIC) + 2 * _LENGTH.size
    if len(blob) < prefix or not blob.startswith(_MAGIC):
        raise PersistenceError("not a session snapshot (bad magic)")
    (crc,) = _LENGTH.unpack_from(blob, len(_MAGIC))
    body = memoryview(blob)[len(_MAGIC) + _LENGTH.size :]
    if zlib.crc32(body) != crc:
        raise PersistenceError("session snapshot is damaged (CRC mismatch)")
    (header_length,) = _LENGTH.unpack_from(body)
    header_end = _LENGTH.size + header_length
    if header_end > len(body):
        raise PersistenceError("session snapshot header is truncated")
    try:
        header = json.loads(bytes(body[_LENGTH.size : header_end]))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise PersistenceError(f"not a session snapshot: {error}") from error
    if not isinstance(header, dict):
        raise PersistenceError("not a session snapshot (header is not a dict)")
    if header.get("kind") != _KIND:
        raise PersistenceError(
            f"not a session snapshot (kind={header.get('kind')!r})"
        )
    version = header.get("format_version")
    if version != _FORMAT_VERSION:
        raise PersistenceError(
            f"snapshot format version {version} is not supported "
            f"(expected {_FORMAT_VERSION})"
        )
    buffer = body[header_end:]
    try:
        arrays = {
            key: _array_view(key, descriptor, buffer)
            for key, descriptor in header["arrays"].items()
        }
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise PersistenceError(
            f"session snapshot has malformed array descriptors: {error}"
        ) from error
    return header, arrays


def snapshot_to_bytes(snapshot: SessionSnapshot) -> bytes:
    """Encode ``snapshot`` (what every :class:`SessionStore` keeps)."""
    arrays: dict[str, np.ndarray] = {}
    state_tree = _flatten(snapshot.state, arrays)
    # Flattened into the same arrays dict, after the state tree, so
    # array keys stay unique.  None for stateless users.
    user_tree = (
        None
        if snapshot.user_state is None
        else _flatten(snapshot.user_state, arrays)
    )
    if snapshot.dataset is not None:
        arrays["dataset_points"] = snapshot.dataset.points
    header = {
        "format_version": _FORMAT_VERSION,
        "kind": _KIND,
        "session_id": snapshot.session_id,
        "family": snapshot.family,
        "epsilon": snapshot.epsilon,
        "rounds": snapshot.rounds,
        "agent_ref": snapshot.agent_ref,
        "state": state_tree,
        "user_state": user_tree,
        "dataset": {
            **snapshot.dataset_meta,
            "stored": snapshot.dataset is not None,
            "attribute_names": (
                list(snapshot.dataset.attribute_names)
                if snapshot.dataset is not None
                else []
            ),
        },
        "transcript": [
            [
                int(entry.round_number),
                int(entry.index_i),
                int(entry.index_j),
                bool(entry.prefers_first),
            ]
            for entry in snapshot.transcript
        ],
    }
    return _encode(header, arrays)


def snapshot_from_bytes(blob: bytes) -> SessionSnapshot:
    """Decode a blob written by :func:`snapshot_to_bytes`.

    Every damaged or foreign input raises :class:`PersistenceError`.
    """
    header, arrays = _decode(blob)
    try:
        return _snapshot_from_header(header, arrays)
    except (
        KeyError, TypeError, ValueError, AttributeError, DataError
    ) as error:
        raise PersistenceError(
            f"session snapshot header is malformed: {error!r}"
        ) from error


def _snapshot_from_header(
    header: dict[str, Any], arrays: dict[str, np.ndarray]
) -> SessionSnapshot:
    """The snapshot a checked header and its array views describe."""
    # _unflatten copies each view out of the blob: restored state is
    # writable and never aliases the caller's bytes.
    state = _unflatten(header["state"], arrays)
    user_tree = header["user_state"]
    user_state = None if user_tree is None else _unflatten(user_tree, arrays)
    transcript = tuple(
        TranscriptEntry(
            round_number=int(round_number),
            index_i=int(index_i),
            index_j=int(index_j),
            prefers_first=bool(answer),
        )
        for round_number, index_i, index_j, answer in header["transcript"]
    )
    dataset_meta = dict(header["dataset"])
    stored = bool(dataset_meta.pop("stored", False))
    attribute_names = dataset_meta.pop("attribute_names", [])
    dataset = None
    if stored:
        dataset = Dataset(
            np.array(arrays["dataset_points"], dtype=float),
            name=str(dataset_meta["name"]),
            attribute_names=tuple(str(n) for n in attribute_names),
        )
    return SessionSnapshot(
        session_id=str(header["session_id"]),
        family=str(header["family"]),
        epsilon=float(header["epsilon"]),
        rounds=int(header["rounds"]),
        state=state,
        transcript=transcript,
        agent_ref=header["agent_ref"],
        dataset=dataset,
        dataset_meta=dataset_meta,
        user_state=user_state,
    )


def save_snapshot(
    snapshot: SessionSnapshot, target: str | Path | BinaryIO
) -> Path | None:
    """Write ``snapshot`` to a path or a binary stream.

    A path gets :data:`SNAPSHOT_SUFFIX` appended unless it already ends
    in it.  Returns the path written, or ``None`` for stream targets.
    """
    blob = snapshot_to_bytes(snapshot)
    if isinstance(target, (str, Path)):
        path = Path(target)
        if path.suffix != SNAPSHOT_SUFFIX:
            path = path.with_suffix(path.suffix + SNAPSHOT_SUFFIX)
        path.write_bytes(blob)
        return path
    target.write(blob)
    return None


def load_snapshot(source: str | Path | BinaryIO) -> SessionSnapshot:
    """Load a snapshot written by :func:`save_snapshot`."""
    if isinstance(source, (str, Path)):
        try:
            blob = Path(source).read_bytes()
        except OSError as error:
            raise PersistenceError(
                f"cannot read session snapshot: {error}"
            ) from error
    else:
        blob = source.read()
    return snapshot_from_bytes(blob)
