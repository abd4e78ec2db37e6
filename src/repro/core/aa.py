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

A round is array work.  The pool is an ``(m, 2)`` int array of unasked
pairs ``i < j``, deduplicated and in ascending ``(i, j)`` order.  The
random pairs come from one ``integers(0, n, size=(random_pool, 2))``
draw, which yields the same values and leaves the generator in the same
state as one size-2 draw per pair.  The pool is ranked by
``|N c| / ||N||`` over its plane normals ``N`` with one stable argsort,
so pairs at exactly the same distance keep ascending ``(i, j)`` order,
and a pair of duplicate points (zero normal) is dropped.  The nearest
pairs then go through the range's stacked split-margin checks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core import state_encoding
from repro.core.environment import EnvObservation, InteractiveEnvironment, RLPolicy
from repro.core.session import validate_epsilon
from repro.core.trainer import TrainedAgent, train_policy
from repro.data.datasets import Dataset
from repro.errors import ConfigurationError, EmptyRegionError
from repro.geometry.hyperplane import PreferenceHalfspace
from repro.geometry.range import SPLIT_TOL, AmbientRange
from repro.geometry.vectors import top_point_index
from repro.obs.tracer import NULL_SPAN, active_tracer
from repro.rl.dqn import DQNConfig
from repro.utils.rng import RngLike


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

    kind = "aa"
    # AA re-encodes its state (inner sphere + outer rectangle) after
    # every answer, so the 2d bound probes are worth prefetching too.
    preview_bounds = True

    def __init__(
        self, dataset: Dataset, config: AAConfig, rng: RngLike = None
    ) -> None:
        super().__init__(dataset, config, rng)
        self._asked: set[tuple[int, int]] = set()
        self._midpoint = np.full(dataset.dimension, 1.0 / dataset.dimension)

    def _new_range(self) -> AmbientRange:
        return AmbientRange(self.dataset.dimension)

    # -- InteractiveEnvironment ------------------------------------------------

    @property
    def state_dim(self) -> int:
        return 3 * self.dataset.dimension + 1

    def reset(self) -> EnvObservation:
        self._range = self._new_range()
        self._asked = set()
        self._pairs = []
        return self._observe()

    def _transition(
        self, index_i: int, index_j: int, halfspace: PreferenceHalfspace
    ) -> EnvObservation:
        # An infeasible update means the (noisy) answer contradicts earlier
        # ones; AA drops it and keeps the last consistent half-space set.
        self._range.update(halfspace)
        self._asked.add((min(index_i, index_j), max(index_i, index_j)))
        return self._observe()

    def recommend(self) -> int:
        return top_point_index(self.dataset.points, self._midpoint)

    def _extra_state(self) -> dict:
        asked = sorted(self._asked)
        return {
            "asked": np.array(asked, dtype=np.int64).reshape(len(asked), 2),
            "midpoint": np.array(self._midpoint, dtype=float),
        }

    def _restore_extra(self, state: dict) -> None:
        self._asked = {
            (int(pair[0]), int(pair[1]))
            for pair in np.asarray(state["asked"]).reshape(-1, 2)
        }
        self._midpoint = np.array(state["midpoint"], dtype=float)

    # -- internals ---------------------------------------------------------------

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
        tracer = active_tracer()
        with NULL_SPAN if tracer is None else tracer.span("aa.candidates"):
            pairs = self._candidate_pairs(center)
        if not pairs:
            # No question can narrow the range further; stop rather than
            # loop (the rectangle criterion may be unreachable when the
            # dataset offers no separating planes inside R).
            return self._terminal_observation(state)
        return self._live_observation(state, pairs)

    def _candidate_pairs(self, center: np.ndarray) -> list[tuple[int, int]]:
        """Top-``m_h`` centre-near pairs whose plane splits the range."""
        points = self.dataset.points
        config = self.config
        pool = self._pair_pool(center)
        # Rank by distance from the inner-sphere centre to the plane; a
        # pair of duplicate points has no plane and is dropped.
        normals = points[pool[:, 0]] - points[pool[:, 1]]
        norms = np.linalg.norm(normals, axis=1)
        keep = norms >= 1e-12
        pool, normals = pool[keep], normals[keep]
        distances = np.abs(normals @ center) / norms[keep]
        # Stable over a pool in ascending (i, j) order: exact ties keep it.
        order = np.argsort(distances, kind="stable")
        pool, normals = pool[order], normals[order]
        # Keep the nearest pairs whose plane cuts R on both sides.  Each
        # chunk holds no more candidates than are still needed, so
        # checking a whole chunk in one stacked LP call accepts exactly
        # the pairs a one-by-one scan would; the only extra work is the
        # negative probe of a pair whose positive side already failed.
        accepted: list[tuple[int, int]] = []
        start = 0
        while start < len(pool) and len(accepted) < config.m_h:
            stop = start + config.m_h - len(accepted)
            chunk = normals[start:stop]
            # Rows n_0, -n_0, n_1, -n_1, ...
            probes = np.stack([chunk, -chunk], axis=1)
            margins = self._range.split_margin(
                probes.reshape(-1, points.shape[1])
            ).reshape(-1, 2)
            splits = (margins > SPLIT_TOL).all(axis=1)
            accepted.extend(
                (int(i), int(j)) for i, j in pool[start:stop][splits]
            )
            start = stop
        return accepted

    def _pair_pool(self, center: np.ndarray) -> np.ndarray:
        """Candidate pool: top-k pairs plus random pairs, deduplicated.

        An ``(m, 2)`` int array of unasked pairs ``i < j`` in ascending
        ``(i, j)`` order.
        """
        config = self.config
        points = self.dataset.points
        n = points.shape[0]
        k = min(config.top_k, n)
        top = np.argpartition(-(points @ center), k - 1)[:k]
        # One draw of every random pair: the same values, and the same
        # generator state after, as one size-2 draw per pair.
        drawn = self._rng.integers(0, n, size=(config.random_pool, 2))
        pairs = np.concatenate([top[_upper_pairs(k)], drawn])
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        pairs.sort(axis=1)
        codes = np.unique(pairs[:, 0] * n + pairs[:, 1])
        if self._asked:
            asked = np.array(list(self._asked), dtype=np.int64)
            asked_codes = asked[:, 0] * n + asked[:, 1]
            codes = codes[~(codes[:, None] == asked_codes).any(axis=1)]
        return np.stack([codes // n, codes % n], axis=1)


@functools.cache
def _upper_pairs(k: int) -> np.ndarray:
    """``(a, b)`` rows with ``a < b < k``, row-major (read-only)."""
    pairs = np.stack(np.triu_indices(k, 1), axis=1)
    pairs.flags.writeable = False
    return pairs


class AASession(RLPolicy):
    """Algorithm AA at inference time (Algorithm 4)."""

    family = "aa"
    environment_class = AAEnvironment


def train_aa(
    dataset: Dataset,
    utilities: np.ndarray,
    config: AAConfig | None = None,
    dqn_config: DQNConfig | None = None,
    rng: RngLike = None,
    updates_per_episode: int = 4,
) -> TrainedAgent:
    """Train algorithm AA (Algorithm 3) through :func:`train_policy`."""
    return train_policy(
        AASession, dataset, utilities, config or AAConfig(), dqn_config, rng,
        updates_per_episode,
    )
