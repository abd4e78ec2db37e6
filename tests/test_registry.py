"""The session registry: one construction surface for all families."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    AdaptiveSession,
    SinglePassSession,
    UHRandomSession,
    UHSimplexSession,
    UtilityApproxSession,
)
from repro.core import AAConfig, AASession, EAConfig, EASession, train_aa, train_ea
from repro.data.utility import sample_training_utilities
from repro.errors import ConfigurationError
from repro.persist import capture_session
from repro.registry import (
    agents_by_family,
    canonical_session_name,
    make_config,
    make_session,
    make_trainer,
    session_names,
    session_needs_agent,
    train_agent,
)
from repro.rl.serialization import save_agent

BASELINE_TYPES = {
    "uh-random": UHRandomSession,
    "uh-simplex": UHSimplexSession,
    "single-pass": SinglePassSession,
    "utility-approx": UtilityApproxSession,
    "adaptive": AdaptiveSession,
}


class TestNames:
    def test_all_families_registered(self):
        assert set(session_names()) == {
            "ea", "aa", "uh-random", "uh-simplex",
            "single-pass", "utility-approx", "adaptive",
        }

    @pytest.mark.parametrize(
        ("alias", "expected"),
        [
            ("EA", "ea"),
            ("AA", "aa"),
            ("UH-Random", "uh-random"),
            ("UH-Simplex", "uh-simplex"),
            ("SinglePass", "single-pass"),
            ("UtilityApprox", "utility-approx"),
            ("uh_random", "uh-random"),
            ("single pass", "single-pass"),
            ("adaptive", "adaptive"),
        ],
    )
    def test_display_aliases(self, alias, expected):
        assert canonical_session_name(alias) == expected

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown session"):
            canonical_session_name("gradient-descent")


class TestMakeSession:
    @pytest.mark.parametrize("name", sorted(BASELINE_TYPES))
    def test_builds_baselines(self, name, small_anti_3d):
        session = make_session(name, small_anti_3d, 0.1, rng=7)
        assert isinstance(session, BASELINE_TYPES[name])
        assert not session.finished or name == "utility-approx"

    def test_builds_rl_sessions(self, trained_ea_3d, trained_aa_3d, small_anti_3d):
        ea = make_session("ea", small_anti_3d, 0.2, rng=1, agent=trained_ea_3d)
        aa = make_session("AA", small_anti_3d, 0.2, rng=1, agent=trained_aa_3d)
        assert isinstance(ea, EASession)
        assert isinstance(aa, AASession)

    def test_rl_without_agent_raises(self, small_anti_3d):
        with pytest.raises(ConfigurationError, match="agent"):
            make_session("ea", small_anti_3d, 0.1, rng=0)

    @pytest.mark.parametrize(("family", "other"), [("aa", "ea"), ("ea", "aa")])
    def test_wrong_family_agent_raises(
        self, family, other, trained_ea_3d, trained_aa_3d, small_anti_3d
    ):
        agent = {"ea": trained_ea_3d, "aa": trained_aa_3d}[other]
        with pytest.raises(ConfigurationError, match="family"):
            make_session(family, small_anti_3d, 0.1, rng=0, agent=agent)

    def test_agent_dataset_mismatch_raises(self, trained_ea_3d, small_anti_4d):
        with pytest.raises(ConfigurationError, match="does not match"):
            make_session("ea", small_anti_4d, 0.1, rng=0, agent=trained_ea_3d)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.3, 1.5])
    def test_invalid_epsilon_raises(self, epsilon, small_anti_3d):
        with pytest.raises(ConfigurationError, match="epsilon"):
            make_session("uh-random", small_anti_3d, epsilon, rng=0)


class TestTrainerAndConfig:
    def test_trainers(self):
        assert make_trainer("EA") is train_ea
        assert make_trainer("aa") is train_aa

    def test_baseline_has_no_trainer(self):
        with pytest.raises(ConfigurationError, match="needs no training"):
            make_trainer("uh-random")

    def test_configs(self):
        assert make_config("ea", epsilon=0.05) == EAConfig(epsilon=0.05)
        assert make_config("AA") == AAConfig()

    def test_baseline_has_no_config(self):
        with pytest.raises(ConfigurationError, match="no trainer config"):
            make_config("single-pass")

    @pytest.mark.parametrize("family", ["ea", "aa"])
    def test_train_agent_is_the_written_out_recipe(
        self, family, small_anti_3d, tmp_path
    ):
        def trained_bytes(agent, name):
            return save_agent(agent, tmp_path / f"{name}.npz").read_bytes()

        rng = np.random.default_rng(4)
        utilities = sample_training_utilities(3, 3, rng=rng)
        recipe = make_trainer(family)(
            small_anti_3d,
            utilities,
            config=make_config(family, epsilon=0.2),
            rng=rng,
            updates_per_episode=1,
        )
        helper = train_agent(
            family,
            small_anti_3d,
            0.2,
            rng=np.random.default_rng(4),
            episodes=3,
            updates_per_episode=1,
        )
        assert trained_bytes(helper, "helper") == trained_bytes(
            recipe, "recipe"
        )

    def test_train_agent_rejects_baselines(self, small_anti_3d):
        with pytest.raises(ConfigurationError, match="needs no training"):
            train_agent("uh-random", small_anti_3d, 0.1, rng=0, episodes=2)


class TestAgentsByFamily:
    def test_display_names_are_canonicalised(self, trained_ea_3d, trained_aa_3d):
        agents = agents_by_family({"EA": trained_ea_3d, "AA": trained_aa_3d})
        assert agents == {"ea": trained_ea_3d, "aa": trained_aa_3d}

    def test_agent_under_other_family_raises(self, trained_ea_3d):
        with pytest.raises(ConfigurationError, match="family"):
            agents_by_family({"aa": trained_ea_3d})

    def test_none_is_empty(self):
        assert agents_by_family(None) == {}


class TestFamilyContract:
    """Each session class names its registry key once, and snapshots use it."""

    @pytest.mark.parametrize("name", sorted(session_names()))
    def test_session_class_declares_its_key(
        self, name, small_anti_3d, trained_ea_3d, trained_aa_3d
    ):
        extra = {}
        if session_needs_agent(name):
            extra["agent"] = {"ea": trained_ea_3d, "aa": trained_aa_3d}[name]
        session = make_session(name, small_anti_3d, 0.1, rng=3, **extra)
        assert type(session).family == name
        snapshot = capture_session(session, session_id=f"contract-{name}")
        assert snapshot.family == name
        assert snapshot.state["class"] == type(session).__name__

    def test_agents_name_their_family(self, trained_ea_3d, trained_aa_3d):
        assert trained_ea_3d.family == "ea"
        assert trained_aa_3d.family == "aa"
