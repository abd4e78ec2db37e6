"""One construction surface for the seven interactive algorithm families.

Every call site (CLI, experiment harness, benchmarks, server, persist)
resolves a family through this module's one table, keyed by the name
each session class declares as its ``family``:

* :func:`make_session` — build a fresh session from a registry name;
* :func:`make_trainer` / :func:`make_config` — the training entry point
  and config class for the RL families, and :func:`train_agent`, which
  trains one with both;
* :func:`agents_by_family` — ``{name: agent}`` keyed by canonical family.

Registry names are short kebab-case strings; :func:`canonical_session_name`
also accepts the historical display names (``"EA"``, ``"UH-Random"``,
``"SinglePass"``, ...), so existing method tuples keep working.  An
agent serves only its own ``family``: ``make_session("aa", ...,
agent=<EA agent>)`` raises :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.baselines import (
    AdaptiveSession,
    SinglePassSession,
    UHRandomSession,
    UHSimplexSession,
    UtilityApproxSession,
)
from repro.core import AAConfig, AASession, EAConfig, EASession, train_aa, train_ea
from repro.core.session import InteractiveAlgorithm, validate_epsilon
from repro.data.datasets import Dataset
from repro.data.utility import sample_training_utilities
from repro.errors import ConfigurationError
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class SessionSpec:
    """How to build sessions of one registered algorithm family.

    ``factory`` is called as ``factory(dataset, epsilon=..., rng=...,
    **kwargs)`` (``rng`` omitted when ``takes_rng`` is false).  Families
    with ``needs_agent`` set are RL policies: their factory is the
    session class, called as ``factory(agent, rng=..., epsilon=...)``,
    and ``make_session`` requires an ``agent=`` keyword argument.  Only
    RL families carry a ``trainer`` (``train_ea`` / ``train_aa``) and a
    ``config`` class.
    """

    name: str
    factory: Callable[..., InteractiveAlgorithm]
    needs_agent: bool = False
    takes_rng: bool = True
    trainer: Callable[..., Any] | None = None
    config: type | None = None


_REGISTRY: dict[str, SessionSpec] = {
    spec.name: spec
    for spec in (
        SessionSpec("ea", EASession, True, trainer=train_ea, config=EAConfig),
        SessionSpec("aa", AASession, True, trainer=train_aa, config=AAConfig),
        SessionSpec("uh-random", UHRandomSession),
        SessionSpec("uh-simplex", UHSimplexSession),
        SessionSpec("single-pass", SinglePassSession),
        SessionSpec("utility-approx", UtilityApproxSession, takes_rng=False),
        SessionSpec("adaptive", AdaptiveSession),
    )
}

#: Historical display names (and their squashed forms) -> registry names.
_ALIASES = {
    "uhrandom": "uh-random",
    "uhsimplex": "uh-simplex",
    "singlepass": "single-pass",
    "single": "single-pass",
    "utilityapprox": "utility-approx",
}


def session_names() -> tuple[str, ...]:
    """All registered session-family names, sorted."""
    return tuple(sorted(_REGISTRY))


def canonical_session_name(name: str) -> str:
    """Normalise ``name`` to its registry form.

    Accepts registry names (``"uh-random"``), the historical display
    names (``"UH-Random"``, ``"SinglePass"``) and common separator
    variants (``"uh_random"``, ``"single pass"``).

    Raises
    ------
    ConfigurationError
        If the name resolves to no registered family.
    """
    key = str(name).strip().lower().replace("_", "-").replace(" ", "-")
    key = _ALIASES.get(key.replace("-", ""), key)
    if key not in _REGISTRY:
        raise ConfigurationError(
            f"unknown session name {name!r}; "
            f"expected one of {', '.join(session_names())}"
        )
    return key


def session_spec(name: str) -> SessionSpec:
    """The registry entry of family ``name`` (aliases accepted)."""
    return _REGISTRY[canonical_session_name(name)]


def session_needs_agent(name: str) -> bool:
    """Whether family ``name`` is an RL policy requiring a trained agent."""
    return session_spec(name).needs_agent


def _check_agent_family(family: str, agent: Any) -> None:
    """Reject an agent trained for a family other than ``family``."""
    if agent.family != family:
        raise ConfigurationError(
            f"agent serves family {agent.family!r}, not {family!r}"
        )


def agents_by_family(agents: Mapping[str, Any] | None) -> dict[str, Any]:
    """``agents`` re-keyed by canonical family name, each key checked.

    Accepts display-name keys (``{"EA": agent}``); raises
    :class:`~repro.errors.ConfigurationError` for an unknown name or an
    agent whose ``family`` is not its key.
    """
    out: dict[str, Any] = {}
    for name, agent in (agents or {}).items():
        family = canonical_session_name(name)
        _check_agent_family(family, agent)
        out[family] = agent
    return out


def make_session(
    name: str,
    dataset: Dataset,
    epsilon: float,
    rng: RngLike = None,
    **kwargs: object,
) -> InteractiveAlgorithm:
    """Build a fresh interactive session of family ``name``.

    Parameters
    ----------
    name:
        ``"ea" | "aa" | "uh-random" | "uh-simplex" | "single-pass" |
        "utility-approx" | "adaptive"`` (display-name aliases accepted).
    dataset:
        The dataset to search.
    epsilon:
        Regret-ratio threshold, validated to ``(0, 1)``.
    rng:
        Seed/generator for the session's own randomness; ignored by the
        deterministic ``"utility-approx"`` family.
    kwargs:
        Family-specific extras.  The RL families (``"ea"``, ``"aa"``)
        require ``agent=<trained agent of that family>`` — training is a
        separate, much heavier step (:func:`make_trainer`); the session
        is then ``agent.new_session(rng=rng, epsilon=epsilon)``.  An
        agent of the other family raises
        :class:`~repro.errors.ConfigurationError`.
    """
    key = canonical_session_name(name)
    spec = _REGISTRY[key]
    epsilon = validate_epsilon(epsilon)
    if spec.needs_agent:
        agent = kwargs.pop("agent", None)
        if agent is None:
            raise ConfigurationError(
                f"session family {key!r} is an RL policy and needs a "
                f"trained agent: make_session({key!r}, ..., agent=agent)"
            )
        _check_agent_family(key, agent)
        agent_dataset = agent.dataset
        if (
            dataset is not None
            and (
                agent_dataset.n != dataset.n
                or agent_dataset.dimension != dataset.dimension
            )
        ):
            raise ConfigurationError(
                f"agent was trained on {agent_dataset.name!r} "
                f"({agent_dataset.n} x {agent_dataset.dimension}), which "
                f"does not match the requested dataset {dataset.name!r} "
                f"({dataset.n} x {dataset.dimension})"
            )
        return spec.factory(agent, rng=rng, epsilon=epsilon, **kwargs)
    if not spec.takes_rng:
        return spec.factory(dataset, epsilon=epsilon, **kwargs)
    return spec.factory(dataset, epsilon=epsilon, rng=rng, **kwargs)


def make_trainer(name: str) -> Callable[..., Any]:
    """The training entry point for RL family ``name``.

    Returns :func:`repro.core.ea.train_ea` or
    :func:`repro.core.aa.train_aa`; baselines need no training and raise
    :class:`~repro.errors.ConfigurationError`.
    """
    spec = session_spec(name)
    if spec.trainer is None:
        raise ConfigurationError(
            f"session family {spec.name!r} needs no training; "
            "only 'ea' and 'aa' have trainers"
        )
    return spec.trainer


def make_config(name: str, **kwargs: object) -> EAConfig | AAConfig:
    """The hyper-parameter config for RL family ``name``.

    ``make_config("ea", epsilon=0.05)`` is ``EAConfig(epsilon=0.05)``;
    likewise for ``"aa"``.  Raises for families without a config.
    """
    spec = session_spec(name)
    if spec.config is None:
        raise ConfigurationError(
            f"session family {spec.name!r} has no trainer config; "
            "only 'ea' and 'aa' do"
        )
    return spec.config(**kwargs)


def train_agent(
    name: str,
    dataset: Dataset,
    epsilon: float,
    *,
    rng: RngLike,
    episodes: int | None = None,
    utilities: Any = None,
    **kwargs: object,
) -> Any:
    """Train an agent of RL family ``name`` on ``dataset``.

    Trains on ``utilities`` when given, else on ``episodes`` utility
    vectors from :func:`~repro.data.utility.sample_training_utilities`
    drawn with ``rng``.  The trainer is ``make_trainer(name)``, called
    with ``config=make_config(name, epsilon=epsilon)``, the same
    ``rng`` and ``kwargs`` (``updates_per_episode``, ...).  Baselines
    raise :class:`~repro.errors.ConfigurationError` before anything is
    sampled.
    """
    trainer = make_trainer(name)
    if utilities is None:
        if episodes is None:
            raise ConfigurationError(
                "train_agent needs utilities or an episode count"
            )
        utilities = sample_training_utilities(
            dataset.dimension, episodes, rng=rng
        )
    return trainer(
        dataset,
        utilities,
        config=make_config(name, epsilon=epsilon),
        rng=rng,
        **kwargs,
    )
