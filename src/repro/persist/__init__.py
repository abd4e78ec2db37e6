"""Persistent sessions: snapshots, stores, checkpoint/resume.

ROADMAP item 4: millions of users means a session outlives any single
process.  This package makes a running
:class:`~repro.core.session.InteractiveAlgorithm` a first-class,
storable object:

* :class:`SessionSnapshot` — the full state of one session at a round
  boundary (or mid-round, with the pending question): utility-range
  vertices and half-spaces, RNG stream, transcript, round counter, and
  an opaque agent reference for the RL families.
* :func:`save_snapshot` / :func:`load_snapshot` /
  :func:`snapshot_to_bytes` / :func:`snapshot_from_bytes` — a
  single-buffer codec (format version 2): a magic, a CRC32 of the
  body, a UTF-8 JSON header with the session fields, the transcript
  and one ``[dtype, shape, offset]`` descriptor per array, then every
  array's raw C-order bytes in one buffer.  Decoding checks the magic,
  the CRC, ``kind`` and ``format_version``, rejects object dtypes and
  out-of-range descriptors, and copies each array out of the blob.
  Every damaged or foreign blob — version-1 npz snapshots included —
  raises :class:`~repro.errors.PersistenceError`.
* :func:`capture_session` / :func:`restore_session` — between an
  algorithm instance and a snapshot.  Restoration builds a fresh
  session through the registry, then overwrites every mutable field, so
  the resumed session continues **bit-identically**: same remaining
  transcript, same recommendation.
* :class:`SessionStore` — the storage seam, with
  :class:`MemorySessionStore` (both implementations exercise the same
  byte codec) and :class:`FileSessionStore` (one ``<id>.snap`` per
  session, atomic temp-file + :func:`os.replace` writes, safe across
  processes).
* :func:`resumed_spec` — wraps a snapshot as a
  :class:`~repro.serve.spec.SessionSpec` that the serving engine
  admits mid-session (``resumed=True`` bypasses the fresh-algorithm
  check).

The serving layer integrates through
:meth:`repro.serve.scheduler.ContinuousEngine.checkpoint` /
:meth:`~repro.serve.scheduler.ContinuousEngine.resume` and
:class:`repro.serve.dispatch.ShardedDispatcher`'s ``store``
crash-resume (a checkpoint after every worker tick); the HTTP front end
(:mod:`repro.server`) checkpoints after every answer.
"""

from repro.persist.snapshot import (
    SessionSnapshot,
    capture_session,
    load_snapshot,
    restore_session,
    resumed_spec,
    save_snapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.persist.store import (
    FileSessionStore,
    MemorySessionStore,
    SessionStore,
)

__all__ = [
    "FileSessionStore",
    "MemorySessionStore",
    "SessionSnapshot",
    "SessionStore",
    "capture_session",
    "load_snapshot",
    "restore_session",
    "resumed_spec",
    "save_snapshot",
    "snapshot_from_bytes",
    "snapshot_to_bytes",
]
