"""Tests for agent persistence (save_agent / load_agent)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import run_session
from repro.errors import DataError
from repro.rl.serialization import load_agent, save_agent
from repro.users import OracleUser


class TestRoundTrip:
    def test_ea_round_trip_identical_behaviour(
        self, trained_ea_3d, small_anti_3d, tmp_path
    ):
        path = save_agent(trained_ea_3d, tmp_path / "ea_agent")
        assert path.suffix == ".npz"
        loaded = load_agent(path)
        u = np.array([0.3, 0.3, 0.4])
        original = run_session(trained_ea_3d.new_session(rng=5), OracleUser(u))
        restored = run_session(loaded.new_session(rng=5), OracleUser(u))
        assert original.rounds == restored.rounds
        assert original.recommendation_index == restored.recommendation_index

    def test_aa_round_trip_identical_behaviour(
        self, trained_aa_3d, small_anti_3d, tmp_path
    ):
        path = save_agent(trained_aa_3d, tmp_path / "aa_agent.npz")
        loaded = load_agent(path)
        u = np.array([0.25, 0.35, 0.4])
        original = run_session(trained_aa_3d.new_session(rng=9), OracleUser(u))
        restored = run_session(loaded.new_session(rng=9), OracleUser(u))
        assert original.rounds == restored.rounds
        assert original.recommendation_index == restored.recommendation_index

    def test_config_preserved(self, trained_ea_3d, tmp_path):
        loaded = load_agent(save_agent(trained_ea_3d, tmp_path / "a.npz"))
        assert loaded.config == trained_ea_3d.config

    def test_retired_range_config_header_loads(self, trained_ea_3d, tmp_path):
        # Agent files written while EAConfig carried a range-policy block
        # still load; the block is dropped.
        import json

        path = save_agent(trained_ea_3d, tmp_path / "a.npz")
        with np.load(path, allow_pickle=False) as archive:
            data = {k: archive[k] for k in archive.files}
        meta = json.loads(str(data["meta"]))
        meta["config"]["range_config"] = {
            "prune_above": 24,
            "on_infeasible": "raise",
            "max_halfspaces": None,
        }
        data["meta"] = np.array(json.dumps(meta))
        np.savez(path, **data)
        loaded = load_agent(path)
        assert loaded.config == trained_ea_3d.config
        u = np.array([0.3, 0.3, 0.4])
        original = run_session(trained_ea_3d.new_session(rng=5), OracleUser(u))
        restored = run_session(loaded.new_session(rng=5), OracleUser(u))
        assert original.rounds == restored.rounds
        assert original.recommendation_index == restored.recommendation_index

    def test_dataset_preserved(self, trained_ea_3d, tmp_path):
        loaded = load_agent(save_agent(trained_ea_3d, tmp_path / "a.npz"))
        np.testing.assert_array_equal(
            loaded.dataset.points, trained_ea_3d.dataset.points
        )
        assert loaded.dataset.attribute_names == (
            trained_ea_3d.dataset.attribute_names
        )

    def test_weights_preserved_exactly(self, trained_ea_3d, tmp_path):
        loaded = load_agent(save_agent(trained_ea_3d, tmp_path / "a.npz"))
        for mine, theirs in zip(
            loaded.dqn.network.parameters(),
            trained_ea_3d.dqn.network.parameters(),
        ):
            np.testing.assert_array_equal(mine, theirs)


class TestErrors:
    def test_rejects_non_agent(self, tmp_path):
        with pytest.raises(TypeError):
            save_agent("not an agent", tmp_path / "x.npz")

    def test_corrupt_version_rejected(self, trained_ea_3d, tmp_path):
        import json

        path = save_agent(trained_ea_3d, tmp_path / "a.npz")
        with np.load(path, allow_pickle=False) as archive:
            data = {k: archive[k] for k in archive.files}
        meta = json.loads(str(data["meta"]))
        meta["format_version"] = 999
        data["meta"] = np.array(json.dumps(meta))
        np.savez(path, **data)
        with pytest.raises(DataError):
            load_agent(path)
