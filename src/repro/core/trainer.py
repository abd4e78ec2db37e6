"""Generic DQN training over an interactive environment, and its product.

This is the shared skeleton of Algorithm 1 (EA training) and Algorithm 3
(AA training): iterate over a training set of utility vectors, run one
episode per vector with epsilon-greedy question selection, store every
transition in replay memory, and take gradient steps at the end of each
episode (the paper's line "Draw samples from M to update Q").

:func:`train_policy` runs it for one RL family and returns a
:class:`TrainedAgent`, the one agent type both EA and AA produce;
:func:`~repro.core.ea.train_ea` and :func:`~repro.core.aa.train_aa` are
one-line calls into it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.environment import EnvObservation, InteractiveEnvironment, RLPolicy
from repro.data.datasets import Dataset
from repro.obs.tracer import NULL_SPAN, active_tracer
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.replay import Transition
from repro.utils.rng import RngLike, spawn_rngs

#: Episodes are aborted beyond this many rounds during training; the
#: theoretical worst case is O(n) (Theorem 1) but a partially trained
#: policy exploring randomly should not be allowed to stall an epoch.
DEFAULT_TRAINING_ROUND_CAP = 200


@dataclass
class TrainingLog:
    """Per-episode statistics collected during training."""

    rounds_per_episode: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    truncated_episodes: int = 0

    @property
    def episodes(self) -> int:
        """Number of completed training episodes."""
        return len(self.rounds_per_episode)

    def mean_rounds(self, last: int | None = None) -> float:
        """Mean episode length, optionally over the trailing ``last``."""
        rounds = self.rounds_per_episode
        if last is not None:
            rounds = rounds[-last:]
        if not rounds:
            return float("nan")
        return float(np.mean(rounds))


@dataclass
class TrainedAgent:
    """A trained RL policy (EA's or AA's) bound to a dataset.

    Produced by :func:`train_policy` or
    :func:`~repro.rl.serialization.load_agent`; call :meth:`new_session`
    for every user interaction.  ``session_class`` (``EASession`` or
    ``AASession``) names the registry :attr:`family`.
    """

    session_class: type[RLPolicy]
    dataset: Dataset
    config: Any
    dqn: DQNAgent
    training_log: TrainingLog = field(default_factory=TrainingLog)

    @property
    def family(self) -> str:
        """Registry key of the sessions this agent serves (``"ea"``/``"aa"``)."""
        return self.session_class.family

    def new_session(
        self, rng: RngLike = None, epsilon: float | None = None
    ) -> RLPolicy:
        """A fresh session; ``epsilon`` overrides the training threshold."""
        return self.session_class(self, rng=rng, epsilon=epsilon)


def train_policy(
    session_class: type[RLPolicy],
    dataset: Dataset,
    utilities: np.ndarray,
    config: Any,
    dqn_config: DQNConfig | None = None,
    rng: RngLike = None,
    updates_per_episode: int = 4,
) -> TrainedAgent:
    """Train one RL family (Algorithm 1 or 3) and return its agent.

    :func:`train_agent` runs on ``session_class.environment_class`` over
    ``dataset`` with the family's ``config``; ``dqn_config`` defaults
    follow the paper's Section V, and ``rng`` is the master seed from
    which the environment's and the learner's streams are spawned.
    """
    env_rng, dqn_rng = spawn_rngs(rng, 2)
    environment = session_class.environment_class(dataset, config, rng=env_rng)
    dqn = DQNAgent(
        state_dim=environment.state_dim,
        action_dim=environment.action_dim,
        config=dqn_config,
        rng=dqn_rng,
    )
    log = train_agent(
        environment, dqn, utilities, updates_per_episode=updates_per_episode
    )
    return TrainedAgent(session_class, dataset, config, dqn, training_log=log)


def train_agent(
    environment: InteractiveEnvironment,
    dqn: DQNAgent,
    utilities: np.ndarray | Sequence[np.ndarray],
    updates_per_episode: int = 4,
    round_cap: int = DEFAULT_TRAINING_ROUND_CAP,
    on_episode: Callable[[int, int], None] | None = None,
) -> TrainingLog:
    """Train ``dqn`` on ``environment`` over a set of utility vectors.

    Parameters
    ----------
    environment:
        The MDP to interact with; reset at every episode.
    dqn:
        The learner; its replay memory and exploration schedule are used.
    utilities:
        One hidden utility vector per training episode ("for each u in the
        training set", Algorithms 1 and 3).  The simulated answer to a
        question ``<p_i, p_j>`` is ``u . p_i >= u . p_j``.  The terminal
        reward ``c`` is supplied by the environment itself.
    updates_per_episode:
        Gradient steps after each episode.
    round_cap:
        Abort pathologically long episodes (counted in the log).
    on_episode:
        Optional ``(episode_index, rounds)`` progress callback.

    Returns
    -------
    TrainingLog
    """
    if updates_per_episode < 0:
        raise ValueError("updates_per_episode must be >= 0")
    log = TrainingLog()
    points = environment.dataset.points
    tracer = active_tracer()
    for episode, utility in enumerate(utilities):
        episode_span = (
            NULL_SPAN
            if tracer is None
            else tracer.span("train.episode", episode=episode)
        )
        with episode_span:
            utility = np.asarray(utility, dtype=float)
            observation = environment.reset()
            rounds = 0
            while not observation.terminal:
                if rounds >= round_cap:
                    log.truncated_episodes += 1
                    break
                choice = dqn.select_action(
                    observation.state, observation.actions, explore=True
                )
                index_i, index_j = observation.pairs[choice]
                prefers_first = float(utility @ points[index_i]) >= float(
                    utility @ points[index_j]
                )
                next_observation, reward = environment.step(
                    choice, prefers_first
                )
                dqn.remember(
                    _transition(observation, choice, reward, next_observation)
                )
                observation = next_observation
                rounds += 1
            log.rounds_per_episode.append(rounds)
            for _ in range(updates_per_episode):
                if len(dqn.memory):
                    log.losses.append(dqn.train_step())
        if on_episode is not None:
            on_episode(episode, rounds)
    return log


def _transition(
    observation: EnvObservation,
    choice: int,
    reward: float,
    next_observation: EnvObservation,
) -> Transition:
    """Package one step for replay, respecting the terminal convention."""
    return Transition(
        state=observation.state,
        action=observation.actions[choice],
        reward=reward,
        next_state=next_observation.state,
        next_actions=None if next_observation.terminal else next_observation.actions,
        terminal=next_observation.terminal,
    )
