"""Shared machinery of the UH-family baselines (Xie et al., SIGMOD 2019).

Both UH-Random and UH-Simplex maintain:

* the utility range ``R`` as an explicit polytope, intersected with one
  half-space per answer; and
* a *candidate set* ``C`` of points that can still be top-1 for some
  utility vector in ``R``.

Candidate pruning exploits linearity: point ``p_j`` can be discarded when
some other candidate beats it at every extreme vector of ``R`` (then it is
beaten on all of ``R`` and can never be the favourite).  The stopping
condition is the same epsilon-domination test EA uses (a point whose
regret is below ``epsilon`` at every vertex) — both algorithms are exact.

The difference between the two is *question selection only*, expressed by
overriding :meth:`UHBaseSession._select_pair`.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core import terminal
from repro.core.session import InteractiveAlgorithm, Question, validate_epsilon
from repro.data.datasets import Dataset
from repro.errors import (
    ConfigurationError,
    EmptyRegionError,
    VertexEnumerationError,
)
from repro.geometry.range import ExactRange, UpdatePreview
from repro.geometry.vectors import top_point_index
from repro.utils import rng as rng_state
from repro.utils.rng import RngLike, ensure_rng

#: The paper caps polytope-based methods at 10 attributes.
MAX_UH_DIMENSION = 10


class UHBaseSession(InteractiveAlgorithm):
    """Polytope + candidate-set skeleton shared by UH-Random/UH-Simplex."""

    def __init__(
        self,
        dataset: Dataset,
        epsilon: float = 0.1,
        rng: RngLike = None,
    ) -> None:
        super().__init__(dataset)
        epsilon = validate_epsilon(epsilon)
        if dataset.dimension > MAX_UH_DIMENSION:
            raise ConfigurationError(
                f"UH algorithms maintain explicit polytopes and support at "
                f"most {MAX_UH_DIMENSION} attributes; got {dataset.dimension}"
            )
        self.epsilon = epsilon
        self._rng = ensure_rng(rng)
        self._range = ExactRange(dataset.dimension)
        self._candidates = np.arange(dataset.n)
        self._recommendation: int | None = None
        self._refresh()

    # -- InteractiveAlgorithm hooks ---------------------------------------------

    def _propose(self) -> Question:
        index_i, index_j = self._select_pair()
        return self.question_for(index_i, index_j)

    def _update(self, question: Question, prefers_first: bool) -> None:
        halfspace = self.answer_halfspace(question, prefers_first)
        if not self._range.update(halfspace):
            # Contradictory (noisy) answer; keep the last consistent range.
            self._recommendation = self._fallback_recommendation()
            return
        self._refresh()

    def probe_preview(self, prefers_first: bool) -> UpdatePreview | None:
        if self._pending is None:
            return None
        return UpdatePreview(
            self._range,
            self.answer_halfspace(self._pending, prefers_first),
        )

    def _finished(self) -> bool:
        return self._recommendation is not None

    def recommend(self) -> int:
        if self._recommendation is not None:
            return self._recommendation
        return self._fallback_recommendation()

    # -- question selection (subclass hook) --------------------------------------

    @abc.abstractmethod
    def _select_pair(self) -> tuple[int, int]:
        """Choose the next pair of candidate indices to compare."""

    # -- state (checkpoint / resume) ----------------------------------------------

    def _extra_state(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "rng": rng_state.get_state(self._rng),
            "range": self._range.get_state(),
            "candidates": np.array(self._candidates, dtype=np.int64),
            "recommendation": (
                None
                if self._recommendation is None
                else int(self._recommendation)
            ),
        }

    def _restore_extra(self, extra: dict) -> None:
        self.epsilon = validate_epsilon(extra["epsilon"])
        rng_state.set_state(self._rng, extra["rng"])
        self._range.set_state(extra["range"])
        self._candidates = np.array(extra["candidates"], dtype=np.int64)
        recommendation = extra["recommendation"]
        self._recommendation = (
            None if recommendation is None else int(recommendation)
        )
        # The vertex cache is derived state; refresh it from the range.
        self._vertices = self._range.vertices()

    # -- shared internals ----------------------------------------------------------

    @property
    def candidates(self) -> np.ndarray:
        """Dataset indices that may still be the user's favourite."""
        return self._candidates.copy()

    @property
    def utility_range(self) -> ExactRange:
        """The incremental range object (counters, vertices, sampling)."""
        return self._range

    @property
    def halfspaces(self) -> tuple:
        """Half-spaces learned so far (read-only view for tests/metrics)."""
        return self._range.halfspaces

    def _refresh(self) -> None:
        """Recompute vertices, prune candidates, evaluate stopping rule."""
        try:
            vertices = self._range.vertices()
        except (EmptyRegionError, VertexEnumerationError):
            self._recommendation = self._fallback_recommendation()
            return
        self._vertices = vertices
        self._prune_candidates(vertices)
        if self._candidates.shape[0] == 1:
            self._recommendation = int(self._candidates[0])
            return
        anchor = terminal.terminal_anchor(
            self.dataset.points[self._candidates], vertices, self.epsilon
        )
        if anchor is not None:
            self._recommendation = int(self._candidates[anchor])

    def _prune_candidates(self, vertices: np.ndarray) -> None:
        """Drop candidates beaten everywhere on ``R`` by a single witness.

        ``u . p_w >= u . p_j`` is linear in ``u``, so if witness ``p_w``
        beats ``p_j`` at every extreme vector of ``R`` it beats it on all
        of ``R`` and ``p_j`` can never be the favourite.  Only the
        per-vertex winners are tried as witnesses: the check stays sound
        (every prune has an explicit dominator) and costs
        ``O(m_vertices * |C| * #witnesses)`` instead of ``O(|C|^2)``.
        """
        points = self.dataset.points[self._candidates]
        scores = vertices @ points.T  # (m_vertices, n_candidates)
        witnesses = np.unique(np.argmax(scores, axis=1))
        keep = np.ones(scores.shape[1], dtype=bool)
        for witness in witnesses:
            dominated = np.all(
                scores <= scores[:, [witness]] + 1e-12, axis=0
            )
            dominated[witness] = False
            keep &= ~dominated
        self._candidates = self._candidates[keep]

    def _fallback_recommendation(self) -> int:
        """Best point w.r.t. the Chebyshev centre of the current range."""
        try:
            center, _ = self._range.chebyshev_center()
        except EmptyRegionError:
            center = np.full(
                self.dataset.dimension, 1.0 / self.dataset.dimension
            )
        return top_point_index(self.dataset.points, center)
