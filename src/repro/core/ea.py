"""Algorithm EA — the exact RL-based interactive algorithm (Section IV-B).

EA maintains the utility range ``R`` as an explicit polytope.  Its MDP:

* **State** — ``m_e`` greedily selected extreme vectors of ``R`` plus the
  outer sphere (:mod:`repro.core.state_encoding`).
* **Action** — one of ``m_h`` random pairs of *anchor points* (points
  top-1 somewhere in ``R``; each anchors a constructible terminal
  polyhedron, :mod:`repro.core.terminal`).  By Lemma 7 every such
  question narrows ``R``; in floating point only pairs whose plane cuts
  ``R``'s vertex set on both sides are offered
  (:func:`~repro.core.terminal.anchor_pairs`).
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

from dataclasses import dataclass

import numpy as np

from repro.core import state_encoding, terminal
from repro.core.environment import EnvObservation, InteractiveEnvironment, RLPolicy
from repro.core.session import validate_epsilon
from repro.core.trainer import TrainedAgent, train_policy
from repro.data.datasets import Dataset
from repro.errors import (
    ConfigurationError,
    EmptyRegionError,
    VertexEnumerationError,
)
from repro.geometry.hyperplane import PreferenceHalfspace
from repro.geometry.range import ExactRange
from repro.geometry.vectors import top_point_index
from repro.obs.tracer import NULL_SPAN, active_tracer
from repro.rl.dqn import DQNConfig
from repro.utils.rng import RngLike

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

    kind = "ea"

    def __init__(
        self, dataset: Dataset, config: EAConfig, rng: RngLike = None
    ) -> None:
        if dataset.dimension > MAX_EA_DIMENSION:
            raise ConfigurationError(
                f"EA maintains explicit polytopes and supports at most "
                f"{MAX_EA_DIMENSION} attributes; got {dataset.dimension}. "
                "Use algorithm AA for high-dimensional data."
            )
        super().__init__(dataset, config, rng)
        #: A settled answer (terminal or single-anchor) or ``None``: the
        #: best-effort point of the current range, computed on demand.
        self._recommendation: int | None = 0

    def _new_range(self) -> ExactRange:
        return ExactRange(self.dataset.dimension)

    # -- InteractiveEnvironment ------------------------------------------------

    @property
    def state_dim(self) -> int:
        return state_encoding.ea_state_dim(self.dataset.dimension, self.config.m_e)

    def reset(self) -> EnvObservation:
        self._range = self._new_range()
        self._pairs = []
        self._recommendation = 0
        return self._observe()

    def _transition(
        self, index_i: int, index_j: int, halfspace: PreferenceHalfspace
    ) -> EnvObservation:
        if self._range.update(halfspace):
            return self._observe()
        # Contradictory (noisy) answer: keep the last consistent range
        # and stop with the best point found so far.
        return self._terminal_observation(self._last_state())

    def recommend(self) -> int:
        """The settled answer, or the current range's best-effort point.

        While the session is live no answer is settled, and the point
        with the highest utility at the range's Chebyshev centre is
        returned.  It is computed here rather than every round, so a
        round solves no Chebyshev LP; the value is the one an eager
        per-round computation would give for the same range.
        """
        if self._recommendation is not None:
            return self._recommendation
        center, _ = self._range.chebyshev_center()
        return top_point_index(self.dataset.points, center)

    def _extra_state(self) -> dict:
        return {"recommendation": int(self.recommend())}

    def _restore_extra(self, state: dict) -> None:
        self._recommendation = int(state["recommendation"])

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
        # Live: recommend() derives a best-effort point on demand.
        self._recommendation = None
        tracer = active_tracer()
        with NULL_SPAN if tracer is None else tracer.span("ea.candidates"):
            vectors = terminal.build_action_vectors(
                self._range, config.n_samples, rng=self._rng
            )
            anchors, counts = terminal.anchor_indices_with_counts(
                points, vectors
            )
            if anchors.shape[0] < 2:
                # All discovered vectors agree on one winner: numerically
                # this implies the terminal test above was within
                # tolerance of passing; accept that winner.
                self._recommendation = int(anchors[0])
                return self._terminal_observation(state)
            pairs = terminal.anchor_pairs(
                anchors,
                config.m_h,
                self._rng,
                counts=counts if config.weighted_actions else None,
                vertex_scores=vertices @ points[anchors].T,
            )
            return self._live_observation(
                state, [tuple(sorted(pair)) for pair in pairs]
            )


class EASession(RLPolicy):
    """Algorithm EA at inference time (Algorithm 2)."""

    family = "ea"
    environment_class = EAEnvironment


def train_ea(
    dataset: Dataset,
    utilities: np.ndarray,
    config: EAConfig | None = None,
    dqn_config: DQNConfig | None = None,
    rng: RngLike = None,
    updates_per_episode: int = 4,
) -> TrainedAgent:
    """Train algorithm EA (Algorithm 1) through :func:`train_policy`."""
    return train_policy(
        EASession, dataset, utilities, config or EAConfig(), dqn_config, rng,
        updates_per_episode,
    )
