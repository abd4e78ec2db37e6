"""Adaptive (Qian, Gao, Jagadish; VLDB 2015) — preference-learning baseline.

Section II of the paper discusses this algorithm's philosophy: it learns
the user's *utility vector itself* through adaptive pairwise comparisons,
rather than targeting the regret of a returned tuple.  The consequence
the paper points out — and which this implementation reproduces — is
*unnecessary questions*: localising the whole utility vector to high
precision costs far more comparisons than certifying that some tuple is
within ``eps`` of optimal.

Implementation: half-spaces are accumulated as usual; each round asks the
pair of (random candidate) points whose separating hyper-plane passes
closest to the centre of the remaining utility range — the classic
uncertainty-bisection rule of adaptive preference learning.  The session
stops only once the utility vector is localised: the outer rectangle of
the range must satisfy ``||e_max - e_min|| <= eps`` (a factor
``2 sqrt(d)`` stricter than algorithm AA's stopping rule, because the
goal is the vector, not the tuple).
"""

from __future__ import annotations

import numpy as np

from repro.core.session import InteractiveAlgorithm, Question, validate_epsilon
from repro.data.datasets import Dataset
from repro.errors import ConfigurationError
from repro.geometry.range import SPLIT_TOL, AmbientRange, UpdatePreview
from repro.geometry.vectors import top_point_index
from repro.utils import rng as rng_state
from repro.utils.rng import RngLike, ensure_rng

_CANDIDATE_POOL = 96


class AdaptiveSession(InteractiveAlgorithm):
    """One interactive session of the Adaptive preference learner."""

    family = "adaptive"

    def __init__(
        self, dataset: Dataset, epsilon: float = 0.1, rng: RngLike = None
    ) -> None:
        super().__init__(dataset)
        self.epsilon = validate_epsilon(epsilon)
        self._rng = ensure_rng(rng)
        self._range = AmbientRange(dataset.dimension)
        self._asked: set[tuple[int, int]] = set()
        d = dataset.dimension
        self._e_min = np.zeros(d)
        self._e_max = np.ones(d)
        self._center = np.full(d, 1.0 / d)
        self._no_progress = False
        self._refresh()

    # -- InteractiveAlgorithm hooks ---------------------------------------------

    def _propose(self) -> Question:
        pair = self._select_pair()
        return self.question_for(*pair)

    def _update(self, question: Question, prefers_first: bool) -> None:
        halfspace = self.answer_halfspace(question, prefers_first)
        # A contradictory answer is dropped; the consistent set stands.
        self._range.update(halfspace)
        self._asked.add(
            (min(question.index_i, question.index_j),
             max(question.index_i, question.index_j))
        )
        self._refresh()

    def probe_preview(self, prefers_first: bool) -> UpdatePreview | None:
        if self._pending is None:
            return None
        # _refresh() recomputes the outer rectangle after every answer.
        return UpdatePreview(
            self._range,
            self.answer_halfspace(self._pending, prefers_first),
            bounds=True,
        )

    def _finished(self) -> bool:
        width = float(np.linalg.norm(self._e_max - self._e_min))
        return width <= self.epsilon or self._no_progress

    def recommend(self) -> int:
        return top_point_index(self.dataset.points, self.estimated_utility())

    # -- state (checkpoint / resume) ----------------------------------------------

    def _extra_state(self) -> dict:
        asked = sorted(self._asked)
        return {
            "epsilon": float(self.epsilon),
            "rng": rng_state.get_state(self._rng),
            "range": self._range.get_state(),
            "asked": np.array(asked, dtype=np.int64).reshape(len(asked), 2),
            "e_min": np.array(self._e_min, dtype=float),
            "e_max": np.array(self._e_max, dtype=float),
            "center": np.array(self._center, dtype=float),
            "no_progress": bool(self._no_progress),
        }

    def _restore_extra(self, extra: dict) -> None:
        self.epsilon = validate_epsilon(extra["epsilon"])
        rng_state.set_state(self._rng, extra["rng"])
        self._range.set_state(extra["range"])
        self._asked = {
            (int(pair[0]), int(pair[1]))
            for pair in np.asarray(extra["asked"]).reshape(-1, 2)
        }
        self._e_min = np.array(extra["e_min"], dtype=float)
        self._e_max = np.array(extra["e_max"], dtype=float)
        self._center = np.array(extra["center"], dtype=float)
        self._no_progress = bool(extra["no_progress"])

    # -- internals ---------------------------------------------------------------

    def estimated_utility(self) -> np.ndarray:
        """The learned utility vector (the algorithm's actual target)."""
        midpoint = 0.5 * (self._e_min + self._e_max)
        total = float(midpoint.sum())
        if total <= 0:
            return np.full(self.dataset.dimension, 1.0 / self.dataset.dimension)
        return midpoint / total

    @property
    def utility_range(self) -> AmbientRange:
        """The incremental range object (counters, LP surrogates)."""
        return self._range

    @property
    def halfspaces(self) -> tuple:
        """Half-spaces learned so far (read-only view for tests/metrics)."""
        return self._range.halfspaces

    def _refresh(self) -> None:
        self._e_min, self._e_max = self._range.bounds()
        center, _ = self._range.inner_sphere()
        self._center = center

    def _select_pair(self) -> tuple[int, int]:
        """Random-pool pair whose plane bisects the remaining range."""
        points = self.dataset.points
        n = self.dataset.n
        best_pair: tuple[int, int] | None = None
        best_distance = np.inf
        for _ in range(_CANDIDATE_POOL):
            i, j = self._rng.integers(0, n, size=2)
            i, j = int(min(i, j)), int(max(i, j))
            if i == j or (i, j) in self._asked:
                continue
            normal = points[i] - points[j]
            norm = float(np.linalg.norm(normal))
            if norm < 1e-12:
                continue
            distance = abs(float(self._center @ normal)) / norm
            if distance >= best_distance:
                continue
            margins = self._range.split_margin(np.stack([normal, -normal]))
            if not np.all(margins > SPLIT_TOL):
                continue
            best_distance = distance
            best_pair = (i, j)
        if best_pair is None:
            # No informative pair remains: the dataset cannot localise the
            # vector further; answer one final (possibly redundant)
            # question and stop.
            self._no_progress = True
            for _ in range(20):
                i, j = self._rng.choice(n, size=2, replace=False)
                if not np.allclose(points[int(i)], points[int(j)]):
                    return int(i), int(j)
            raise ConfigurationError(
                "dataset appears to consist of duplicated points"
            )
        return best_pair
