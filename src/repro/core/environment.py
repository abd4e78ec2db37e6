"""The MDP interface substantiated by algorithms EA and AA.

Section IV-A models the interaction as an MDP over utility ranges.  An
:class:`InteractiveEnvironment` owns the maintained information (the
polytope for EA, the half-space list for AA) and exposes:

* :meth:`reset` — the initial observation: state features plus the
  restricted candidate-action set (feature matrix + the point-index pairs
  they encode);
* :meth:`step` — apply one answered question, returning the next
  observation and the reward (``c`` on reaching a terminal state, else 0);
* :meth:`recommend` — the point the algorithm would currently return.

:class:`RLPolicy` adapts a trained DQN plus an environment into the
session protocol of :mod:`repro.core.session` — this is the inference
procedure of Algorithms 2 and 4.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.session import CandidateBatch, InteractiveAlgorithm, Question
from repro.data.datasets import Dataset
from repro.errors import InteractionError, PersistenceError
from repro.rl.dqn import DQNAgent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.geometry.range import UpdatePreview


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
    """One MDP substantiation (EA's or AA's) bound to a dataset."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset

    @property
    def utility_range(self):
        """The environment's :class:`~repro.geometry.range.UtilityRange`.

        ``None`` for environments that do not track one; EA and AA
        override this with their :class:`~repro.geometry.range.ExactRange`
        / :class:`~repro.geometry.range.AmbientRange` so callers (the
        serving engine, metrics) can read range-level counters uniformly.
        """
        return None

    @property
    @abc.abstractmethod
    def state_dim(self) -> int:
        """Length of the state feature vector."""

    @property
    @abc.abstractmethod
    def action_dim(self) -> int:
        """Length of one action feature vector."""

    @abc.abstractmethod
    def reset(self) -> EnvObservation:
        """Start a fresh episode with ``R = U`` (no information yet)."""

    @abc.abstractmethod
    def step(self, choice: int, prefers_first: bool) -> tuple[EnvObservation, float]:
        """Apply the answer to candidate ``choice``; observation + reward."""

    def probe_preview(
        self, index_i: int, index_j: int, prefers_first: bool
    ) -> "UpdatePreview | None":
        """Peek the range update :meth:`step` would run for this answer.

        The environment-side half of
        :meth:`~repro.core.session.InteractiveAlgorithm.probe_preview`:
        EA and AA override it with a preview of their range clip /
        feasibility probe so serving engines can batch the solver work
        across sessions.  An AA preview whose answered side a witness
        point of the range already certifies carries no feasibility
        probe (the update runs none), only its ``2d`` bound probes; see
        :class:`~repro.geometry.range.AmbientRange`.  Default ``None`` —
        nothing previewable.
        """
        return None

    @abc.abstractmethod
    def recommend(self) -> int:
        """Dataset index of the current best returnable point."""

    def get_state(self) -> dict[str, Any]:
        """The environment's mutable state (override to support snapshots)."""
        raise PersistenceError(
            f"{type(self).__name__} does not support snapshots"
        )

    def set_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`get_state`."""
        raise PersistenceError(
            f"{type(self).__name__} does not support snapshots"
        )

    def action_features(self, index_i: int, index_j: int) -> np.ndarray:
        """Default pair encoding: the two points concatenated.

        Pairs are canonicalised (lower dataset index first) so the same
        question always maps to the same feature vector.
        """
        if index_j < index_i:
            index_i, index_j = index_j, index_i
        points = self.dataset.points
        return np.concatenate([points[index_i], points[index_j]])


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

    def __init__(self, environment: InteractiveEnvironment, dqn: DQNAgent) -> None:
        super().__init__(environment.dataset)
        self.environment = environment
        self.dqn = dqn
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
    def utility_range(self):
        """The session's utility range (delegates to the environment)."""
        return self.environment.utility_range
