"""Algorithm EA — the exact RL-based interactive algorithm (Section IV-B).

EA maintains the utility range ``R`` as an explicit polytope.  Its MDP:

* **State** — ``m_e`` greedily selected extreme vectors of ``R`` plus the
  outer sphere (:mod:`repro.core.state_encoding`).
* **Action** — one of ``m_h`` random pairs of *anchor points* (points
  top-1 somewhere in ``R``; each anchors a constructible terminal
  polyhedron, :mod:`repro.core.terminal`).  By Lemma 7 every such
  question strictly narrows ``R``.
* **Transition** — intersect ``R`` with the answer's half-space.
* **Reward** — ``c`` when ``R`` becomes a terminal polyhedron (Lemma 6),
  0 otherwise; with discounting, maximising return minimises rounds.

Exactness: the returned point's regret ratio is below ``epsilon`` for
*every* utility vector remaining in ``R`` — in particular for the user's.

With a consistent (noiseless) user ``R`` never becomes empty.  Answers
from a :class:`~repro.users.oracle.NoisyUser` can contradict earlier ones;
EA then stops gracefully and returns the best point w.r.t. the last
non-empty range's Chebyshev centre (the paper defers the noisy case to
future work; this fallback makes the implementation usable there too).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core import state_encoding, terminal
from repro.core.environment import EnvObservation, InteractiveEnvironment, RLPolicy
from repro.core.session import validate_epsilon
from repro.core.trainer import TrainingLog, train_agent
from repro.data.datasets import Dataset
from repro.errors import (
    ConfigurationError,
    EmptyRegionError,
    InteractionError,
    PersistenceError,
    VertexEnumerationError,
)
from repro.geometry.hyperplane import answer_halfspace
from repro.geometry.polytope import UtilityPolytope
from repro.geometry.range import ExactRange, UpdatePreview
from repro.geometry.vectors import top_point_index
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.utils import rng as rng_state
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs

#: EA relies on explicit polytopes; beyond this many attributes the
#: computation is impractical (the paper caps polytope-based methods at 10).
MAX_EA_DIMENSION = 10


@dataclass(frozen=True)
class EAConfig:
    """Hyper-parameters of algorithm EA.

    Attributes
    ----------
    epsilon:
        Regret-ratio threshold of the query.
    m_e:
        Number of extreme vectors embedded in the state (Section IV-B).
    m_h:
        Size of the restricted action space (paper default 5).
    d_eps:
        Neighbourhood radius of the max-coverage vertex selection.
    n_samples:
        Utility vectors sampled inside ``R`` per round when discovering
        anchor points (Lemma 5 trade-off: more samples find more
        large-volume terminal polyhedra but cost more time).
    reward_constant:
        Terminal reward ``c`` (paper default 100).
    weighted_actions:
        Draw anchor pairs weighted by sample counts (volume-sensitive,
        the default) instead of uniformly (the paper's plain reading).
        Ablated in ``benchmarks/bench_ablations.py``.
    step_penalty:
        Optional per-round negative reward; 0 reproduces the paper's
        terminal-only reward.  Ablated in ``bench_ablations.py``.
    sphere_method:
        Outer-sphere solver for the state encoding: the paper's
        ``"iterative"`` mover or ``"ritter"``.  Ablated in
        ``bench_ablations.py``.
    """

    epsilon: float = 0.1
    m_e: int = 5
    m_h: int = 5
    d_eps: float = 0.1
    n_samples: int = 64
    reward_constant: float = 100.0
    weighted_actions: bool = True
    step_penalty: float = 0.0
    sphere_method: str = "iterative"

    def __post_init__(self) -> None:
        validate_epsilon(self.epsilon)
        if self.m_e < 1 or self.m_h < 1:
            raise ConfigurationError("m_e and m_h must be >= 1")
        if self.n_samples < 0:
            raise ConfigurationError("n_samples must be >= 0")
        if self.reward_constant <= 0:
            raise ConfigurationError("reward_constant must be > 0")
        if self.step_penalty < 0:
            raise ConfigurationError("step_penalty must be >= 0")
        if self.sphere_method not in ("iterative", "ritter"):
            raise ConfigurationError(
                f"sphere_method must be 'iterative' or 'ritter', "
                f"got {self.sphere_method!r}"
            )


class EAEnvironment(InteractiveEnvironment):
    """The EA substantiation of the interaction MDP."""

    def __init__(
        self, dataset: Dataset, config: EAConfig, rng: RngLike = None
    ) -> None:
        super().__init__(dataset)
        if dataset.dimension > MAX_EA_DIMENSION:
            raise ConfigurationError(
                f"EA maintains explicit polytopes and supports at most "
                f"{MAX_EA_DIMENSION} attributes; got {dataset.dimension}. "
                "Use algorithm AA for high-dimensional data."
            )
        self.config = config
        self._rng = ensure_rng(rng)
        self._range = self._new_range()
        self._pairs: list[tuple[int, int]] = []
        self._recommendation = 0
        self._terminal = True  # becomes live on reset()

    def _new_range(self) -> ExactRange:
        return ExactRange(self.dataset.dimension)

    # -- InteractiveEnvironment ------------------------------------------------

    @property
    def state_dim(self) -> int:
        return state_encoding.ea_state_dim(self.dataset.dimension, self.config.m_e)

    @property
    def action_dim(self) -> int:
        return 2 * self.dataset.dimension

    def reset(self) -> EnvObservation:
        self._range = self._new_range()
        self._pairs = []
        self._recommendation = 0
        return self._observe()

    def step(self, choice: int, prefers_first: bool) -> tuple[EnvObservation, float]:
        if self._terminal:
            raise InteractionError("episode already terminal; call reset()")
        if not 0 <= choice < len(self._pairs):
            raise ValueError(f"action choice {choice} out of range")
        index_i, index_j = self._pairs[choice]
        halfspace = answer_halfspace(
            self.dataset.points, index_i, index_j, prefers_first
        )
        if self._range.update(halfspace):
            observation = self._observe()
        else:
            # Contradictory (noisy) answer: keep the last consistent range
            # and stop with the best point found so far.
            observation = self._terminal_observation(self._last_state())
        if observation.terminal:
            reward = self.config.reward_constant
        else:
            reward = -self.config.step_penalty
        return observation, reward

    def probe_preview(
        self, index_i: int, index_j: int, prefers_first: bool
    ) -> UpdatePreview | None:
        if self._terminal:
            return None
        return UpdatePreview(
            self._range,
            answer_halfspace(
                self.dataset.points, index_i, index_j, prefers_first
            ),
        )

    def recommend(self) -> int:
        return self._recommendation

    @property
    def utility_range(self) -> ExactRange:
        """The incremental range object (counters, vertices, sampling)."""
        return self._range

    @property
    def polytope(self) -> UtilityPolytope:
        """The current utility range (read-only view for tests/metrics)."""
        return self._range.polytope

    @property
    def halfspaces(self) -> tuple:
        """Half-spaces learned so far (read-only view for tests/metrics)."""
        return self._range.halfspaces

    # -- state (checkpoint / resume) ---------------------------------------------

    def get_state(self) -> dict:
        state = getattr(self, "_state", None)
        return {
            "kind": "ea",
            "rng": rng_state.get_state(self._rng),
            "range": self._range.get_state(),
            "pairs": np.array(self._pairs, dtype=np.int64).reshape(
                len(self._pairs), 2
            ),
            "recommendation": int(self._recommendation),
            "terminal": bool(self._terminal),
            "state": None if state is None else np.array(state, dtype=float),
        }

    def set_state(self, state: dict) -> None:
        if state.get("kind") != "ea":
            raise PersistenceError(
                f"environment state kind {state.get('kind')!r} is not 'ea'"
            )
        rng_state.set_state(self._rng, state["rng"])
        self._range.set_state(state["range"])
        self._pairs = [
            (int(pair[0]), int(pair[1]))
            for pair in np.asarray(state["pairs"]).reshape(-1, 2)
        ]
        self._recommendation = int(state["recommendation"])
        self._terminal = bool(state["terminal"])
        encoded = state["state"]
        self._state = (
            None if encoded is None else np.array(encoded, dtype=float)
        )

    # -- internals ---------------------------------------------------------------

    def _observe(self) -> EnvObservation:
        points = self.dataset.points
        config = self.config
        try:
            vertices = self._range.vertices()
        except (EmptyRegionError, VertexEnumerationError):
            return self._terminal_observation(self._last_state())
        state, _ = state_encoding.ea_state(
            vertices,
            config.m_e,
            config.d_eps,
            rng=self._rng,
            sphere_method=config.sphere_method,
        )
        self._state = state
        anchor = terminal.terminal_anchor(points, vertices, config.epsilon)
        if anchor is not None:
            self._recommendation = anchor
            return self._terminal_observation(state)
        # Track a best-effort recommendation for mid-session traces.
        center, _ = self._range.chebyshev_center()
        self._recommendation = top_point_index(points, center)
        vectors = terminal.build_action_vectors(
            self._range, config.n_samples, rng=self._rng
        )
        anchors, counts = terminal.anchor_indices_with_counts(points, vectors)
        if anchors.shape[0] < 2:
            # All discovered vectors agree on one winner: numerically this
            # implies the terminal test above was within tolerance of
            # passing; accept that winner.
            self._recommendation = int(anchors[0])
            return self._terminal_observation(state)
        pairs = terminal.anchor_pairs(
            anchors,
            config.m_h,
            self._rng,
            counts=counts if config.weighted_actions else None,
        )
        self._pairs = [tuple(sorted(pair)) for pair in pairs]
        actions = np.array(
            [self.action_features(i, j) for i, j in self._pairs]
        )
        self._terminal = False
        return EnvObservation(state, actions, self._pairs, terminal=False)

    def _terminal_observation(self, state: np.ndarray) -> EnvObservation:
        self._terminal = True
        self._pairs = []
        return EnvObservation(state, None, None, terminal=True)

    def _last_state(self) -> np.ndarray:
        state = getattr(self, "_state", None)
        if state is None:
            state = np.zeros(self.state_dim)
        return state


@dataclass
class EAAgent:
    """A trained EA policy bound to a dataset.

    Produced by :func:`train_ea` / :class:`EATrainer`; call
    :meth:`new_session` for every user interaction.
    """

    dataset: Dataset
    config: EAConfig
    dqn: DQNAgent
    training_log: TrainingLog = field(default_factory=TrainingLog)

    def new_session(
        self, rng: RngLike = None, epsilon: float | None = None
    ) -> "EASession":
        """A fresh interactive session using the learned Q-function.

        ``epsilon`` overrides the training-time threshold: the learned
        Q-function is threshold-agnostic (it scores states and candidate
        pairs), while the stopping condition is evaluated by the
        environment, so one trained agent can serve queries at any
        threshold.  Overrides outside ``(0, 1)`` raise
        :class:`~repro.errors.ConfigurationError` (an unreachable stopping
        condition would otherwise loop to the round cap).
        """
        return EASession(self, rng=rng, epsilon=epsilon)


class EASession(RLPolicy):
    """Algorithm EA at inference time (Algorithm 2)."""

    def __init__(
        self,
        agent: EAAgent,
        rng: RngLike = None,
        epsilon: float | None = None,
    ) -> None:
        config = agent.config
        if epsilon is not None:
            config = replace(config, epsilon=validate_epsilon(epsilon))
        environment = EAEnvironment(agent.dataset, config, rng=rng)
        super().__init__(environment, agent.dqn)


class EATrainer:
    """Algorithm EA's training procedure (Algorithm 1).

    Parameters
    ----------
    dataset:
        The (skyline-preprocessed) dataset users will search.
    config:
        EA hyper-parameters.
    dqn_config:
        Learner hyper-parameters; defaults follow the paper's Section V.
    rng:
        Master seed; independent streams are spawned for the environment
        and the learner.
    """

    def __init__(
        self,
        dataset: Dataset,
        config: EAConfig | None = None,
        dqn_config: DQNConfig | None = None,
        rng: RngLike = None,
    ) -> None:
        self.dataset = dataset
        self.config = config or EAConfig()
        env_rng, dqn_rng = spawn_rngs(rng, 2)
        self.environment = EAEnvironment(dataset, self.config, rng=env_rng)
        self.dqn = DQNAgent(
            state_dim=self.environment.state_dim,
            action_dim=self.environment.action_dim,
            config=dqn_config,
            rng=dqn_rng,
        )

    def train(
        self,
        utilities: np.ndarray,
        updates_per_episode: int = 4,
        round_cap: int = 200,
    ) -> EAAgent:
        """Run Algorithm 1 over ``utilities`` and return the trained agent."""
        log = train_agent(
            self.environment,
            self.dqn,
            utilities,
            updates_per_episode=updates_per_episode,
            round_cap=round_cap,
        )
        return EAAgent(
            dataset=self.dataset,
            config=self.config,
            dqn=self.dqn,
            training_log=log,
        )


def train_ea(
    dataset: Dataset,
    utilities: np.ndarray,
    config: EAConfig | None = None,
    dqn_config: DQNConfig | None = None,
    rng: RngLike = None,
    updates_per_episode: int = 4,
) -> EAAgent:
    """Convenience wrapper: build an :class:`EATrainer` and train it."""
    trainer = EATrainer(dataset, config=config, dqn_config=dqn_config, rng=rng)
    return trainer.train(utilities, updates_per_episode=updates_per_episode)
