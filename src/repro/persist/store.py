"""Session stores: where snapshots live between requests.

A :class:`SessionStore` maps session ids to
:class:`~repro.persist.snapshot.SessionSnapshot` payloads.  Two
implementations ship:

* :class:`MemorySessionStore` — a dict of encoded snapshot bytes.  It
  still routes through the byte codec (not a dict of live objects), so
  everything a file-backed deployment would hit — array dtype round
  trips, JSON scalar coercion, format and checksum gates — is
  exercised in fast tests.
* :class:`FileSessionStore` — one ``<id>.snap`` per session under a
  root directory (the suffix is
  :data:`~repro.persist.snapshot.SNAPSHOT_SUFFIX`).  Writes go through
  a temp file + :func:`os.replace` so a crash mid-checkpoint leaves the
  previous snapshot intact, and a fresh process pointed at the same
  directory resumes every session.

Ids are restricted to ``[A-Za-z0-9._-]`` (no separators), so an id can
never escape the store's root directory.
"""

from __future__ import annotations

import itertools
import os
import re
import threading
from abc import ABC, abstractmethod
from pathlib import Path

from repro.errors import PersistenceError
from repro.persist.snapshot import (
    SNAPSHOT_SUFFIX,
    SessionSnapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
)

_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,128}$")

#: Staging-name sequence shared by every FileSessionStore in this
#: process: two handles pointed at one directory must not both stage
#: as "<id>.snap.<pid>.0.tmp".  ``next()`` on a C-implemented count is
#: atomic under the GIL.
_TEMP_SEQ = itertools.count()


def _check_id(session_id: str) -> str:
    if not _ID_PATTERN.match(session_id) or session_id in {".", ".."}:
        raise PersistenceError(
            f"invalid session id {session_id!r}: ids are 1-128 characters "
            "from [A-Za-z0-9._-]"
        )
    return session_id


class SessionStore(ABC):
    """Keyed storage for session snapshots.

    Implementations are safe for concurrent use from multiple threads of
    one process; :class:`FileSessionStore` additionally survives process
    restarts.
    """

    @abstractmethod
    def put(self, snapshot: SessionSnapshot) -> None:
        """Store ``snapshot`` under ``snapshot.session_id`` (upsert)."""

    @abstractmethod
    def get(self, session_id: str) -> SessionSnapshot:
        """The stored snapshot, or :class:`PersistenceError` if absent."""

    @abstractmethod
    def delete(self, session_id: str) -> None:
        """Drop a stored snapshot; missing ids are a no-op."""

    @abstractmethod
    def ids(self) -> tuple[str, ...]:
        """All stored session ids, sorted."""

    def __contains__(self, session_id: str) -> bool:
        return str(session_id) in self.ids()


class MemorySessionStore(SessionStore):
    """In-process store holding encoded snapshot bytes."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def put(self, snapshot: SessionSnapshot) -> None:
        blob = snapshot_to_bytes(snapshot)
        with self._lock:
            self._blobs[_check_id(snapshot.session_id)] = blob

    def get(self, session_id: str) -> SessionSnapshot:
        with self._lock:
            blob = self._blobs.get(str(session_id))
        if blob is None:
            raise PersistenceError(f"no stored session {session_id!r}")
        return snapshot_from_bytes(blob)

    def delete(self, session_id: str) -> None:
        with self._lock:
            self._blobs.pop(str(session_id), None)

    def ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._blobs))

    def __contains__(self, session_id: str) -> bool:
        # put() admits checked ids only, so a rejected id is never a key.
        with self._lock:
            return str(session_id) in self._blobs


class FileSessionStore(SessionStore):
    """One ``<id>.snap`` per session under ``root`` (created on demand).

    Safe for concurrent writers across *processes*, not just threads:
    every :meth:`put` stages its bytes in a temp file whose name embeds
    the writer's pid plus a per-process sequence number, opened with
    ``O_EXCL`` so two writers can never interleave bytes in one staging
    file, then atomically :func:`os.replace`\\ d over the target.  Two
    dispatcher workers checkpointing the same id simultaneously each
    publish a complete snapshot; the later replace wins whole, never a
    torn mix.  (A shared ``<id>.snap.tmp`` name would let writer B's
    bytes land in the file writer A is about to rename.)
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, session_id: str) -> Path:
        return self.root / f"{_check_id(str(session_id))}{SNAPSHOT_SUFFIX}"

    def put(self, snapshot: SessionSnapshot) -> None:
        path = self._path(snapshot.session_id)
        blob = snapshot_to_bytes(snapshot)
        # Unique per (process, counter); a forked worker inherits the
        # counter value but not the pid, so names still never collide.
        temp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_TEMP_SEQ)}.tmp"
        )
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(temp, path)
        except BaseException:
            try:
                os.unlink(temp)
            except FileNotFoundError:
                pass
            raise

    def get(self, session_id: str) -> SessionSnapshot:
        path = self._path(session_id)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            raise PersistenceError(
                f"no stored session {session_id!r} under {self.root}"
            ) from None
        return snapshot_from_bytes(blob)

    def delete(self, session_id: str) -> None:
        path = self._path(session_id)
        with self._lock:
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def ids(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                p.name[: -len(SNAPSHOT_SUFFIX)]
                for p in self.root.glob(f"*{SNAPSHOT_SUFFIX}")
            )
        )

    def __contains__(self, session_id: str) -> bool:
        try:
            path = self._path(session_id)
        except PersistenceError:
            return False
        return path.exists()
