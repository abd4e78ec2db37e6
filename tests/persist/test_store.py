"""SessionStore implementations: both run the same byte codec."""

from __future__ import annotations

import pytest

from repro.data import synthetic_dataset
from repro.data.utility import sample_training_utilities
from repro.errors import PersistenceError
from repro.persist import (
    FileSessionStore,
    MemorySessionStore,
    capture_session,
)
from repro.persist.snapshot import SNAPSHOT_SUFFIX
from repro.registry import make_session
from repro.users import OracleUser


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset("anti", 150, 3, rng=3)


def _snapshot(dataset, session_id, rounds=1):
    session = make_session("uh-random", dataset, 0.1, rng=5)
    user = OracleUser(sample_training_utilities(3, 1, rng=17)[0])
    for _ in range(rounds):
        question = session.next_question()
        session.observe(user.prefers(question.p_i, question.p_j))
    return capture_session(session, session_id=session_id)


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemorySessionStore()
    return FileSessionStore(tmp_path / "sessions")


class TestStoreContract:
    def test_put_get_round_trip(self, store, dataset):
        snapshot = _snapshot(dataset, "alpha")
        store.put(snapshot)
        loaded = store.get("alpha")
        assert loaded.session_id == "alpha"
        assert loaded.rounds == snapshot.rounds
        assert loaded.transcript == snapshot.transcript

    def test_put_is_upsert(self, store, dataset):
        store.put(_snapshot(dataset, "alpha", rounds=1))
        later = _snapshot(dataset, "alpha", rounds=3)
        store.put(later)
        assert store.get("alpha").rounds == later.rounds
        assert store.ids() == ("alpha",)

    def test_ids_sorted_and_contains(self, store, dataset):
        for name in ("b", "a", "c"):
            store.put(_snapshot(dataset, name))
        assert store.ids() == ("a", "b", "c")
        assert "b" in store
        assert "zzz" not in store

    def test_missing_id_raises(self, store):
        with pytest.raises(PersistenceError, match="no stored session"):
            store.get("missing")

    def test_delete_is_idempotent(self, store, dataset):
        store.put(_snapshot(dataset, "gone"))
        store.delete("gone")
        store.delete("gone")
        assert store.ids() == ()

    def test_contains_never_lists_the_store(
        self, store, dataset, monkeypatch
    ):
        store.put(_snapshot(dataset, "here"))

        def no_listing():
            raise AssertionError("membership must not list the store")

        monkeypatch.setattr(store, "ids", no_listing)
        assert "here" in store
        assert "absent" not in store
        store.delete("here")
        assert "here" not in store

    @pytest.mark.parametrize("bad_id", ["", "a/b", "../escape", ".."])
    def test_contains_is_false_for_invalid_ids(self, store, bad_id):
        assert bad_id not in store

    @pytest.mark.parametrize(
        "bad_id",
        ["", "a/b", "../escape", "a" * 129, "sp ace", ".", ".."],
    )
    def test_invalid_ids_are_rejected(self, store, dataset, bad_id):
        snapshot = _snapshot(dataset, "ok")
        object.__setattr__(snapshot, "session_id", bad_id)
        with pytest.raises(PersistenceError, match="invalid session id"):
            store.put(snapshot)


class TestFileStore:
    def test_survives_reopen(self, tmp_path, dataset):
        root = tmp_path / "sessions"
        FileSessionStore(root).put(_snapshot(dataset, "persist-me"))
        reopened = FileSessionStore(root)
        assert reopened.get("persist-me").session_id == "persist-me"

    def test_one_file_per_session(self, tmp_path, dataset):
        root = tmp_path / "sessions"
        store = FileSessionStore(root)
        store.put(_snapshot(dataset, "one"))
        store.put(_snapshot(dataset, "two"))
        assert sorted(p.name for p in root.glob("*")) == [
            f"one{SNAPSHOT_SUFFIX}",
            f"two{SNAPSHOT_SUFFIX}",
        ]

    def test_traversal_cannot_escape_root(self, tmp_path, dataset):
        store = FileSessionStore(tmp_path / "sessions")
        with pytest.raises(PersistenceError):
            store.get("../../etc/passwd")


class TestConcurrentWriters:
    """Multi-writer safety: per-writer O_EXCL temp names, atomic publish."""

    def test_concurrent_puts_of_one_id_never_tear(self, tmp_path, dataset):
        import threading

        root = tmp_path / "sessions"
        snapshots = [
            _snapshot(dataset, "contended", rounds=rounds)
            for rounds in (1, 2, 3, 4)
        ]
        errors: list[BaseException] = []

        def hammer(snapshot):
            # Each thread gets its own store handle, as two processes
            # pointed at one directory would.
            store = FileSessionStore(root)
            try:
                for _ in range(10):
                    store.put(snapshot)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(s,)) for s in snapshots
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # The survivor is one writer's *complete* snapshot, never a mix.
        loaded = FileSessionStore(root).get("contended")
        assert loaded.rounds in {1, 2, 3, 4}
        reference = snapshots[loaded.rounds - 1]
        assert loaded.transcript == reference.transcript

    def test_staging_names_cannot_collide_across_writers(
        self, tmp_path, dataset, monkeypatch
    ):
        import os as os_module

        import repro.persist.store as store_module

        # Two writers racing on one id must stage under distinct names:
        # a shared "<id>.snap.tmp" would let writer B's bytes land in the
        # file writer A is about to publish.
        staged: list[str] = []
        real_open = os_module.open

        def recording_open(path, flags, *args, **kwargs):
            if str(path).endswith(".tmp"):
                staged.append(str(path))
                assert flags & os_module.O_EXCL
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(store_module.os, "open", recording_open)
        store = FileSessionStore(tmp_path / "sessions")
        store.put(_snapshot(dataset, "alpha"))
        store.put(_snapshot(dataset, "alpha"))
        assert len(staged) == 2
        assert staged[0] != staged[1]
        assert all(str(os_module.getpid()) in name for name in staged)

    def test_no_temp_litter_and_ids_ignore_staging_files(
        self, tmp_path, dataset
    ):
        root = tmp_path / "sessions"
        store = FileSessionStore(root)
        store.put(_snapshot(dataset, "clean"))
        leftovers = [p.name for p in root.glob("*.tmp")]
        assert leftovers == []
        # A stray .tmp from a crashed writer is invisible to ids().
        (root / f"clean{SNAPSHOT_SUFFIX}.999.0.tmp").write_bytes(b"partial")
        assert store.ids() == ("clean",)
