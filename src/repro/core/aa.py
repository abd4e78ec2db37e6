"""Algorithm AA — the approximate, scalable RL algorithm (Section IV-C).

AA never materialises the utility range.  It keeps only the set ``H`` of
learned half-spaces and summarises ``R = U ∩ H`` with two LP-computable
surrogates:

* the **inner sphere** ``(B_c, B_r)`` — the largest ball inscribed in the
  range (one LP);
* the **outer rectangle** ``(e_min, e_max)`` — the axis-aligned bounding
  box (``2d`` LPs).

State = ``[B_c, B_r, e_min, e_max]`` (length ``3d + 1``).  Candidate
actions are the ``m_h`` pairs whose separating hyper-plane passes closest
to ``B_c`` — a proxy for "splits R in half" — subject to the LP check
that *both* sides of the plane intersect ``R`` (Lemma 8 guarantees strict
narrowing).  The interaction stops once
``||e_min - e_max|| <= 2 sqrt(d) eps``; the returned point is the best
w.r.t. the rectangle's midpoint, with regret ratio at most ``d^2 eps``
(Lemma 9) and empirically below ``eps``.

Candidate generation: the paper ranks "pairs in D" by distance to ``B_c``
without committing to an enumeration strategy; scanning all ``O(n^2)``
pairs is infeasible for the paper's dataset sizes.  We rank a *pool*
consisting of (a) all pairs among the current top-``k`` points w.r.t.
``B_c`` — the points whose separating planes pass near the centre of the
remaining range — and (b) uniformly random pairs for coverage.  DESIGN.md
lists this as the one under-specified implementation detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core import state_encoding
from repro.core.environment import EnvObservation, InteractiveEnvironment, RLPolicy
from repro.core.session import validate_epsilon
from repro.core.trainer import TrainingLog, train_agent
from repro.data.datasets import Dataset
from repro.errors import (
    ConfigurationError,
    EmptyRegionError,
    InteractionError,
    PersistenceError,
)
from repro.geometry.hyperplane import PreferenceHalfspace, answer_halfspace
from repro.geometry.range import SPLIT_TOL, AmbientRange, UpdatePreview
from repro.geometry.vectors import top_point_index
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.utils import rng as rng_state
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


@dataclass(frozen=True)
class AAConfig:
    """Hyper-parameters of algorithm AA.

    Attributes
    ----------
    epsilon:
        Regret-ratio threshold; the stopping condition is
        ``||e_min - e_max|| <= 2 sqrt(d) epsilon``.
    m_h:
        Size of the restricted action space (paper default 5).
    top_k:
        Pairs among the top-``k`` points w.r.t. the inner-sphere centre
        seed the candidate pool.
    random_pool:
        Additional uniformly random pairs added to the pool per round.
    reward_constant:
        Terminal reward ``c`` (paper default 100).
    """

    epsilon: float = 0.1
    m_h: int = 5
    top_k: int = 12
    random_pool: int = 64
    reward_constant: float = 100.0
    step_penalty: float = 0.0

    def __post_init__(self) -> None:
        validate_epsilon(self.epsilon)
        if self.m_h < 1:
            raise ConfigurationError("m_h must be >= 1")
        if self.top_k < 2:
            raise ConfigurationError("top_k must be >= 2")
        if self.random_pool < 0:
            raise ConfigurationError("random_pool must be >= 0")
        if self.reward_constant <= 0:
            raise ConfigurationError("reward_constant must be > 0")
        if self.step_penalty < 0:
            raise ConfigurationError("step_penalty must be >= 0")


class AAEnvironment(InteractiveEnvironment):
    """The AA substantiation of the interaction MDP."""

    def __init__(
        self, dataset: Dataset, config: AAConfig, rng: RngLike = None
    ) -> None:
        super().__init__(dataset)
        self.config = config
        self._rng = ensure_rng(rng)
        self._range = self._new_range()
        self._pairs: list[tuple[int, int]] = []
        self._asked: set[tuple[int, int]] = set()
        self._midpoint = np.full(dataset.dimension, 1.0 / dataset.dimension)
        self._terminal = True

    # -- InteractiveEnvironment ------------------------------------------------

    @property
    def state_dim(self) -> int:
        return 3 * self.dataset.dimension + 1

    @property
    def action_dim(self) -> int:
        return 2 * self.dataset.dimension

    def reset(self) -> EnvObservation:
        self._range = self._new_range()
        self._asked = set()
        self._pairs = []
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
        # An infeasible update means the (noisy) answer contradicts earlier
        # ones; AA drops it and keeps the last consistent half-space set.
        self._range.update(halfspace)
        self._asked.add((min(index_i, index_j), max(index_i, index_j)))
        observation = self._observe()
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
        # AA re-encodes its state (inner sphere + outer rectangle) after
        # every answer, so the 2d bound probes are worth prefetching too.
        return UpdatePreview(
            self._range,
            answer_halfspace(
                self.dataset.points, index_i, index_j, prefers_first
            ),
            bounds=True,
        )

    def recommend(self) -> int:
        return top_point_index(self.dataset.points, self._midpoint)

    @property
    def utility_range(self) -> AmbientRange:
        """The incremental range object (counters, LP surrogates)."""
        return self._range

    @property
    def halfspaces(self) -> tuple[PreferenceHalfspace, ...]:
        """Learned half-spaces (read-only view for tests/metrics)."""
        return self._range.halfspaces

    # -- state (checkpoint / resume) ---------------------------------------------

    def get_state(self) -> dict:
        state = getattr(self, "_state", None)
        asked = sorted(self._asked)
        return {
            "kind": "aa",
            "rng": rng_state.get_state(self._rng),
            "range": self._range.get_state(),
            "pairs": np.array(self._pairs, dtype=np.int64).reshape(
                len(self._pairs), 2
            ),
            "asked": np.array(asked, dtype=np.int64).reshape(len(asked), 2),
            "midpoint": np.array(self._midpoint, dtype=float),
            "terminal": bool(self._terminal),
            "state": None if state is None else np.array(state, dtype=float),
        }

    def set_state(self, state: dict) -> None:
        if state.get("kind") != "aa":
            raise PersistenceError(
                f"environment state kind {state.get('kind')!r} is not 'aa'"
            )
        rng_state.set_state(self._rng, state["rng"])
        self._range.set_state(state["range"])
        self._pairs = [
            (int(pair[0]), int(pair[1]))
            for pair in np.asarray(state["pairs"]).reshape(-1, 2)
        ]
        self._asked = {
            (int(pair[0]), int(pair[1]))
            for pair in np.asarray(state["asked"]).reshape(-1, 2)
        }
        self._midpoint = np.array(state["midpoint"], dtype=float)
        self._terminal = bool(state["terminal"])
        encoded = state["state"]
        self._state = (
            None if encoded is None else np.array(encoded, dtype=float)
        )

    # -- internals ---------------------------------------------------------------

    def _new_range(self) -> AmbientRange:
        return AmbientRange(self.dataset.dimension)

    def _observe(self) -> EnvObservation:
        d = self.dataset.dimension
        config = self.config
        try:
            state, e_min, e_max = state_encoding.aa_state_from_range(self._range)
        except EmptyRegionError:
            # Should not happen (step() only keeps feasible sets); degrade
            # to a terminal observation on the last midpoint.
            return self._terminal_observation(self._last_state())
        center = state[:d]
        self._midpoint = 0.5 * (e_min + e_max)
        self._state = state
        width = float(np.linalg.norm(e_max - e_min))
        if width <= 2.0 * np.sqrt(d) * config.epsilon:
            return self._terminal_observation(state)
        pairs = self._candidate_pairs(center)
        if not pairs:
            # No question can narrow the range further; stop rather than
            # loop (the rectangle criterion may be unreachable when the
            # dataset offers no separating planes inside R).
            return self._terminal_observation(state)
        self._pairs = pairs
        actions = np.array([self.action_features(i, j) for i, j in pairs])
        self._terminal = False
        return EnvObservation(state, actions, pairs, terminal=False)

    def _candidate_pairs(self, center: np.ndarray) -> list[tuple[int, int]]:
        """Top-``m_h`` centre-near pairs whose plane splits the range."""
        points = self.dataset.points
        n = points.shape[0]
        config = self.config
        pool = self._pair_pool(center, n)
        if not pool:
            return []
        # Rank by distance from the inner-sphere centre to the plane.
        scored: list[tuple[float, tuple[int, int]]] = []
        for i, j in pool:
            normal = points[i] - points[j]
            norm = float(np.linalg.norm(normal))
            if norm < 1e-12:
                continue
            distance = abs(float(center @ normal)) / norm
            scored.append((distance, (i, j)))
        scored.sort(key=lambda item: item[0])
        # Keep the nearest pairs whose plane cuts R on both sides.  Each
        # chunk holds no more candidates than are still needed, so
        # checking a whole chunk in one stacked LP call accepts exactly
        # the pairs a one-by-one scan would; the only extra work is the
        # negative probe of a pair whose positive side already failed.
        accepted: list[tuple[int, int]] = []
        start = 0
        while start < len(scored) and len(accepted) < config.m_h:
            stop = start + config.m_h - len(accepted)
            chunk = [pair for _, pair in scored[start:stop]]
            start = stop
            normals = np.array([points[i] - points[j] for i, j in chunk])
            # Rows n_0, -n_0, n_1, -n_1, ...
            probes = np.stack([normals, -normals], axis=1)
            margins = self._range.split_margin(
                probes.reshape(-1, points.shape[1])
            ).reshape(-1, 2)
            for pair, (positive, negative) in zip(chunk, margins):
                if positive > SPLIT_TOL and negative > SPLIT_TOL:
                    accepted.append(pair)
        return accepted

    def _pair_pool(self, center: np.ndarray, n: int) -> list[tuple[int, int]]:
        """Candidate pool: top-k pairs plus random pairs, deduplicated."""
        config = self.config
        scores = self.dataset.points @ center
        k = min(config.top_k, n)
        top = np.argpartition(-scores, k - 1)[:k]
        pool: set[tuple[int, int]] = set()
        for a in range(k):
            for b in range(a + 1, k):
                i, j = int(top[a]), int(top[b])
                pool.add((min(i, j), max(i, j)))
        for _ in range(config.random_pool):
            i, j = self._rng.integers(0, n, size=2)
            if i != j:
                pool.add((min(int(i), int(j)), max(int(i), int(j))))
        return [pair for pair in pool if pair not in self._asked]

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
class AAAgent:
    """A trained AA policy bound to a dataset."""

    dataset: Dataset
    config: AAConfig
    dqn: DQNAgent
    training_log: TrainingLog = field(default_factory=TrainingLog)

    def new_session(
        self, rng: RngLike = None, epsilon: float | None = None
    ) -> "AASession":
        """A fresh interactive session using the learned Q-function.

        ``epsilon`` overrides the training-time threshold; the stopping
        condition is evaluated by the environment, so one trained agent
        serves queries at any threshold.  Overrides outside ``(0, 1)``
        raise :class:`~repro.errors.ConfigurationError`.
        """
        return AASession(self, rng=rng, epsilon=epsilon)


class AASession(RLPolicy):
    """Algorithm AA at inference time (Algorithm 4)."""

    def __init__(
        self,
        agent: AAAgent,
        rng: RngLike = None,
        epsilon: float | None = None,
    ) -> None:
        config = agent.config
        if epsilon is not None:
            config = replace(config, epsilon=validate_epsilon(epsilon))
        environment = AAEnvironment(agent.dataset, config, rng=rng)
        super().__init__(environment, agent.dqn)


class AATrainer:
    """Algorithm AA's training procedure (Algorithm 3)."""

    def __init__(
        self,
        dataset: Dataset,
        config: AAConfig | None = None,
        dqn_config: DQNConfig | None = None,
        rng: RngLike = None,
    ) -> None:
        self.dataset = dataset
        self.config = config or AAConfig()
        env_rng, dqn_rng = spawn_rngs(rng, 2)
        self.environment = AAEnvironment(dataset, self.config, rng=env_rng)
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
    ) -> AAAgent:
        """Run Algorithm 3 over ``utilities`` and return the trained agent."""
        log = train_agent(
            self.environment,
            self.dqn,
            utilities,
            updates_per_episode=updates_per_episode,
            round_cap=round_cap,
        )
        return AAAgent(
            dataset=self.dataset,
            config=self.config,
            dqn=self.dqn,
            training_log=log,
        )


def train_aa(
    dataset: Dataset,
    utilities: np.ndarray,
    config: AAConfig | None = None,
    dqn_config: DQNConfig | None = None,
    rng: RngLike = None,
    updates_per_episode: int = 4,
) -> AAAgent:
    """Convenience wrapper: build an :class:`AATrainer` and train it."""
    trainer = AATrainer(dataset, config=config, dqn_config=dqn_config, rng=rng)
    return trainer.train(utilities, updates_per_episode=updates_per_episode)
