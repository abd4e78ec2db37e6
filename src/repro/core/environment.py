"""The MDP interface substantiated by algorithms EA and AA.

Section IV-A models the interaction as an MDP over utility ranges.  An
:class:`InteractiveEnvironment` owns the maintained information (the
polytope for EA, the half-space list for AA) and exposes:

* :meth:`~InteractiveEnvironment.reset` — the initial observation: state
  features plus the restricted candidate-action set (feature matrix +
  the point-index pairs they encode);
* :meth:`~InteractiveEnvironment.step` — apply one answered question,
  returning the next observation and the reward (``c`` on reaching a
  terminal state, else 0);
* :meth:`~InteractiveEnvironment.recommend` — the point the algorithm
  would currently return.

EA and AA differ only in state, action and transition (Algorithms 1/3
and 2/4), so the base class carries everything else once: the config,
RNG, range, candidate pairs and terminal flag, the reward, the range
preview and the snapshot state codec.

:class:`RLPolicy` adapts a trained agent plus an environment into the
session protocol of :mod:`repro.core.session` — this is the inference
procedure of Algorithms 2 and 4.  ``EASession`` and ``AASession`` are
its two declarations: each names its registry ``family`` and its
``environment_class``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, ClassVar

import numpy as np

from repro.core.session import (
    CandidateBatch,
    InteractiveAlgorithm,
    Question,
    validate_epsilon,
)
from repro.data.datasets import Dataset
from repro.errors import InteractionError, PersistenceError
from repro.geometry.hyperplane import PreferenceHalfspace, answer_halfspace
from repro.geometry.range import UpdatePreview
from repro.utils import rng as rng_state
from repro.utils.rng import RngLike, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.trainer import TrainedAgent


@dataclass
class EnvObservation:
    """What the agent sees at the start of a round.

    ``actions`` is the ``(m, action_dim)`` candidate feature matrix and
    ``pairs`` the corresponding dataset-index pairs; both are ``None`` for
    terminal observations.
    """

    state: np.ndarray
    actions: np.ndarray | None
    pairs: list[tuple[int, int]] | None
    terminal: bool

    def __post_init__(self) -> None:
        if self.terminal and (self.actions is not None or self.pairs is not None):
            raise ValueError("terminal observations carry no actions")
        if not self.terminal:
            if self.actions is None or self.pairs is None:
                raise ValueError("non-terminal observations need actions")
            if len(self.pairs) != self.actions.shape[0]:
                raise ValueError("pair list and action matrix length differ")


class InteractiveEnvironment(abc.ABC):
    """One MDP substantiation (EA's or AA's) bound to a dataset.

    A subclass supplies its range (:meth:`_new_range`), state encoding
    and candidates (:meth:`reset`), how one answer moves the range
    (:meth:`_transition`) and any extra state fields
    (:meth:`_extra_state` / :meth:`_restore_extra`).
    """

    #: Tag written into :meth:`get_state` and checked by :meth:`set_state`.
    kind: ClassVar[str]
    #: Whether :meth:`probe_preview` asks for the ``2d`` bound probes too.
    preview_bounds: ClassVar[bool] = False

    def __init__(self, dataset: Dataset, config: Any, rng: RngLike = None) -> None:
        self.dataset = dataset
        self.config = config
        self._rng = ensure_rng(rng)
        self._range = self._new_range()
        self._pairs: list[tuple[int, int]] = []
        self._terminal = True  # becomes live on reset()
        self._state: np.ndarray | None = None

    @abc.abstractmethod
    def _new_range(self) -> Any:
        """A fresh range ``R = U`` (no information yet)."""

    @property
    def utility_range(self) -> Any:
        """The incremental :class:`~repro.geometry.range.UtilityRange`."""
        return self._range

    @property
    def halfspaces(self) -> tuple:
        """Half-spaces learned so far (read-only view for tests/metrics)."""
        return self._range.halfspaces

    @property
    @abc.abstractmethod
    def state_dim(self) -> int:
        """Length of the state feature vector."""

    @property
    def action_dim(self) -> int:
        """Length of one action feature vector (two concatenated points)."""
        return 2 * self.dataset.dimension

    @abc.abstractmethod
    def reset(self) -> EnvObservation:
        """Start a fresh episode with ``R = U`` (no information yet)."""

    def step(self, choice: int, prefers_first: bool) -> tuple[EnvObservation, float]:
        """Apply the answer to candidate ``choice``; observation + reward.

        The reward is the config's ``reward_constant`` on reaching a
        terminal state and minus its ``step_penalty`` otherwise.
        """
        if self._terminal:
            raise InteractionError("episode already terminal; call reset()")
        if not 0 <= choice < len(self._pairs):
            raise ValueError(f"action choice {choice} out of range")
        index_i, index_j = self._pairs[choice]
        halfspace = answer_halfspace(
            self.dataset.points, index_i, index_j, prefers_first
        )
        observation = self._transition(index_i, index_j, halfspace)
        if observation.terminal:
            reward = self.config.reward_constant
        else:
            reward = -self.config.step_penalty
        return observation, reward

    @abc.abstractmethod
    def _transition(
        self, index_i: int, index_j: int, halfspace: PreferenceHalfspace
    ) -> EnvObservation:
        """Fold one answered pair's half-space into the range; observe."""

    def probe_preview(
        self, index_i: int, index_j: int, prefers_first: bool
    ) -> UpdatePreview | None:
        """Peek the range update :meth:`step` would run for this answer.

        The environment-side half of
        :meth:`~repro.core.session.InteractiveAlgorithm.probe_preview`,
        so serving engines can batch the solver work across sessions;
        ``None`` once the episode is terminal.
        """
        if self._terminal:
            return None
        return UpdatePreview(
            self._range,
            answer_halfspace(
                self.dataset.points, index_i, index_j, prefers_first
            ),
            bounds=self.preview_bounds,
        )

    @abc.abstractmethod
    def recommend(self) -> int:
        """Dataset index of the current best returnable point."""

    # -- state (checkpoint / resume) -------------------------------------------

    def get_state(self) -> dict[str, Any]:
        """The environment's mutable state as a snapshot-ready dict."""
        state = self._state
        return {
            "kind": self.kind,
            "rng": rng_state.get_state(self._rng),
            "range": self._range.get_state(),
            "pairs": np.array(self._pairs, dtype=np.int64).reshape(
                len(self._pairs), 2
            ),
            **self._extra_state(),
            "terminal": bool(self._terminal),
            "state": None if state is None else np.array(state, dtype=float),
        }

    def set_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`get_state`."""
        if state.get("kind") != self.kind:
            raise PersistenceError(
                f"environment state kind {state.get('kind')!r} is not "
                f"{self.kind!r}"
            )
        rng_state.set_state(self._rng, state["rng"])
        self._range.set_state(state["range"])
        self._pairs = [
            (int(pair[0]), int(pair[1]))
            for pair in np.asarray(state["pairs"]).reshape(-1, 2)
        ]
        self._restore_extra(state)
        self._terminal = bool(state["terminal"])
        encoded = state["state"]
        self._state = (
            None if encoded is None else np.array(encoded, dtype=float)
        )

    def _extra_state(self) -> dict[str, Any]:
        """Subclass fields :meth:`get_state` places after ``pairs``."""
        return {}

    def _restore_extra(self, state: dict[str, Any]) -> None:
        """Restore the fields :meth:`_extra_state` wrote."""

    # -- helpers -----------------------------------------------------------------

    def action_features(self, index_i: int, index_j: int) -> np.ndarray:
        """Default pair encoding: the two points concatenated.

        Pairs are canonicalised (lower dataset index first) so the same
        question always maps to the same feature vector.
        """
        if index_j < index_i:
            index_i, index_j = index_j, index_i
        points = self.dataset.points
        return np.concatenate([points[index_i], points[index_j]])

    def _terminal_observation(self, state: np.ndarray) -> EnvObservation:
        self._terminal = True
        self._pairs = []
        return EnvObservation(state, None, None, terminal=True)

    def _live_observation(
        self, state: np.ndarray, pairs: list[tuple[int, int]]
    ) -> EnvObservation:
        self._terminal = False
        self._pairs = pairs
        actions = np.array([self.action_features(i, j) for i, j in pairs])
        return EnvObservation(state, actions, pairs, terminal=False)

    def _last_state(self) -> np.ndarray:
        """The last encoded state (zeros before the first encoding)."""
        return np.zeros(self.state_dim) if self._state is None else self._state


class RLPolicy(InteractiveAlgorithm):
    """Inference-time wrapper: greedy Q-value question selection.

    Implements Algorithms 2 and 4: in every round the candidate with the
    highest Q-value is asked; the environment maintains the information
    and detects the terminal state.

    Question selection is split into the two halves the serving engine
    needs: :meth:`candidate_batch` exposes the current candidates
    (generation), :meth:`score_candidates` evaluates them (scoring), and
    ``_propose`` composes the two for the sequential path.  Engine-driven
    sessions replace only the scoring call with a batched one that is
    bit-identical per candidate set.
    """

    #: The environment class this policy runs (set by each declaration).
    environment_class: ClassVar[type[InteractiveEnvironment]]

    def __init__(
        self,
        agent: "TrainedAgent",
        rng: RngLike = None,
        epsilon: float | None = None,
    ) -> None:
        """A fresh session of ``agent``'s learned Q-function.

        ``epsilon`` overrides the training-time threshold (the Q-function
        is threshold-agnostic; the environment evaluates the stopping
        condition); values outside ``(0, 1)`` raise
        :class:`~repro.errors.ConfigurationError`.
        """
        config = agent.config
        if epsilon is not None:
            config = replace(config, epsilon=validate_epsilon(epsilon))
        environment = self.environment_class(agent.dataset, config, rng=rng)
        super().__init__(environment.dataset)
        self.environment = environment
        self.dqn = agent.dqn
        self.epsilon = config.epsilon
        self._observation = environment.reset()
        self._choice: int | None = None
        self._done = self._observation.terminal

    def candidate_batch(self) -> CandidateBatch:
        """Current candidates for external (possibly batched) scoring."""
        observation = self._observation
        if (
            observation.terminal
            or observation.pairs is None
            or observation.actions is None
        ):
            raise InteractionError("environment is already terminal")
        return CandidateBatch(
            state=observation.state,
            actions=observation.actions,
            pairs=tuple(observation.pairs),
        )

    def score_candidates(self, batch: CandidateBatch) -> np.ndarray:
        """Q-value of every candidate in ``batch`` (the scoring hook)."""
        return self.dqn.q_values(batch.state, batch.actions)

    def _resolve_choice(self, choice: int) -> Question:
        pairs = self._observation.pairs
        if self._observation.terminal or pairs is None:
            raise InteractionError("environment is already terminal")
        if not 0 <= choice < len(pairs):
            raise InteractionError(
                f"candidate choice {choice} out of range for "
                f"{len(pairs)} candidates"
            )
        self._choice = int(choice)
        index_i, index_j = pairs[self._choice]
        return self.question_for(index_i, index_j)

    def _propose(self) -> Question:
        batch = self.candidate_batch()
        scores = self.score_candidates(batch)
        return self._resolve_choice(int(np.argmax(scores)))

    def _update(self, question: Question, prefers_first: bool) -> None:
        if self._choice is None:
            raise InteractionError("no proposed question to update with")
        self._observation, _ = self.environment.step(self._choice, prefers_first)
        self._choice = None

    def probe_preview(self, prefers_first: bool) -> "UpdatePreview | None":
        question = self._pending
        if question is None or self._choice is None:
            return None
        # The pending question was built from the environment's own
        # candidate pair, so previewing by dataset indices matches what
        # step() will derive from the stored choice.
        return self.environment.probe_preview(
            question.index_i, question.index_j, prefers_first
        )

    def _finished(self) -> bool:
        return self._observation.terminal

    def recommend(self) -> int:
        return self.environment.recommend()

    def _extra_state(self) -> dict[str, Any]:
        observation = self._observation
        return {
            "choice": None if self._choice is None else int(self._choice),
            "observation": {
                "state": np.array(observation.state, dtype=float),
                "actions": (
                    None
                    if observation.actions is None
                    else np.array(observation.actions, dtype=float)
                ),
                "pairs": (
                    None
                    if observation.pairs is None
                    else np.array(observation.pairs, dtype=np.int64).reshape(
                        len(observation.pairs), 2
                    )
                ),
                "terminal": bool(observation.terminal),
            },
            "environment": self.environment.get_state(),
        }

    def _restore_extra(self, extra: dict[str, Any]) -> None:
        observation = extra["observation"]
        pairs = observation["pairs"]
        self._observation = EnvObservation(
            state=np.array(observation["state"], dtype=float),
            actions=(
                None
                if observation["actions"] is None
                else np.array(observation["actions"], dtype=float)
            ),
            pairs=(
                None
                if pairs is None
                else [
                    (int(pair[0]), int(pair[1]))
                    for pair in np.asarray(pairs).reshape(-1, 2)
                ]
            ),
            terminal=bool(observation["terminal"]),
        )
        choice = extra["choice"]
        self._choice = None if choice is None else int(choice)
        self.environment.set_state(extra["environment"])

    @property
    def halfspaces(self) -> tuple:
        """Half-spaces learned so far (delegates to the environment)."""
        return self.environment.halfspaces

    @property
    def utility_range(self) -> Any:
        """The session's utility range (delegates to the environment)."""
        return self.environment.utility_range
