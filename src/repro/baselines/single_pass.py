"""SinglePass (Zhang, Tatti, Gionis; KDD 2023) — the streaming baseline.

SinglePass avoids polytope computations entirely, which makes it the only
pre-RL baseline usable in high dimensions — at the cost of many more
questions.  It scans the dataset once in a random order, maintaining a
*champion*; for each streamed point it either

1. **skips** it — the champion provably epsilon-dominates the point for
   every utility vector consistent with the answers so far;
2. **promotes** it without asking — the point provably beats the champion
   everywhere; or
3. **asks** the user, crowning the winner and recording the answer's
   half-space.

Domination checks use an outer-rectangle relaxation of the learned
half-space set (2d LPs per *asked* question only): for any ``w``,
``max_{u in R} u . w <= sum_k max(w_k lo_k, w_k hi_k)`` with
``[lo, hi]`` the bounding box of ``R``.  The bound is sound (it can only
fail to skip, never skip wrongly) and cheap, and it reproduces the
published behaviour: a handful of questions in low dimensions, hundreds
in high dimensions where the box stays loose.
"""

from __future__ import annotations

import numpy as np

from repro.core.session import InteractiveAlgorithm, Question, validate_epsilon
from repro.data.datasets import Dataset
from repro.geometry.range import AmbientRange, UpdatePreview
from repro.utils import rng as rng_state
from repro.utils.rng import RngLike, ensure_rng


#: Refresh the bounding box on every question up to this many questions;
#: beyond it (the high-dimensional regime, where the box barely prunes
#: anyway) refresh every ``_BOX_REFRESH_PERIOD`` questions.  A stale box
#: is a strict superset of the current range, so staleness is sound — it
#: can only cost extra questions, never a wrong skip.
_BOX_REFRESH_EAGER = 50
_BOX_REFRESH_PERIOD = 5
#: Working-set cap on the learned half-spaces used in the LPs.  In high
#: dimensions SinglePass asks hundreds of questions; unbounded growth of
#: the constraint set makes every subsequent LP slower.  Only the most
#: recent answers (those involving the current champion) are kept.
#: Dropping constraints relaxes the region — a superset — so the
#: optimisation is sound: it can only reduce skipping, never mislead it.
_MAX_WORKING_HALFSPACES = 60


class SinglePassSession(InteractiveAlgorithm):
    """One interactive session of SinglePass."""

    family = "single-pass"

    def __init__(
        self, dataset: Dataset, epsilon: float = 0.1, rng: RngLike = None
    ) -> None:
        super().__init__(dataset)
        self.epsilon = validate_epsilon(epsilon)
        self._rng = ensure_rng(rng)
        order = self._rng.permutation(dataset.n)
        self._champion = int(order[0])
        self._stream = [int(i) for i in order[1:]]
        self._cursor = 0
        self._range = AmbientRange(
            dataset.dimension, max_halfspaces=_MAX_WORKING_HALFSPACES
        )
        self._questions_asked = 0
        d = dataset.dimension
        self._lo = np.zeros(d)
        self._hi = np.ones(d)
        self._advance()

    # -- InteractiveAlgorithm hooks ---------------------------------------------

    def _propose(self) -> Question:
        challenger = self._stream[self._cursor]
        return self.question_for(self._champion, challenger)

    def _update(self, question: Question, prefers_first: bool) -> None:
        winner = question.index_i if prefers_first else question.index_j
        halfspace = self.answer_halfspace(question, prefers_first)
        if self._range.update(halfspace):
            self._questions_asked += 1
            if (
                self._questions_asked <= _BOX_REFRESH_EAGER
                or self._questions_asked % _BOX_REFRESH_PERIOD == 0
            ):
                self._refresh_box()
        self._champion = winner
        self._cursor += 1
        self._advance()

    def probe_preview(self, prefers_first: bool) -> UpdatePreview | None:
        if self._pending is None:
            return None
        # Bounds are refreshed only on the box schedule; mirror the
        # counter bump a successful update would apply.
        asked = self._questions_asked + 1
        refresh = (
            asked <= _BOX_REFRESH_EAGER or asked % _BOX_REFRESH_PERIOD == 0
        )
        return UpdatePreview(
            self._range,
            self.answer_halfspace(self._pending, prefers_first),
            bounds=refresh,
        )

    def _finished(self) -> bool:
        return self._cursor >= len(self._stream)

    def recommend(self) -> int:
        return self._champion

    # -- state (checkpoint / resume) ----------------------------------------------

    def _extra_state(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "rng": rng_state.get_state(self._rng),
            "range": self._range.get_state(),
            "champion": int(self._champion),
            "stream": np.array(self._stream, dtype=np.int64),
            "cursor": int(self._cursor),
            "questions_asked": int(self._questions_asked),
            "lo": np.array(self._lo, dtype=float),
            "hi": np.array(self._hi, dtype=float),
        }

    def _restore_extra(self, extra: dict) -> None:
        self.epsilon = validate_epsilon(extra["epsilon"])
        rng_state.set_state(self._rng, extra["rng"])
        self._range.set_state(extra["range"])
        self._champion = int(extra["champion"])
        self._stream = [int(i) for i in np.asarray(extra["stream"])]
        self._cursor = int(extra["cursor"])
        self._questions_asked = int(extra["questions_asked"])
        self._lo = np.array(extra["lo"], dtype=float)
        self._hi = np.array(extra["hi"], dtype=float)

    # -- internals ---------------------------------------------------------------

    @property
    def champion(self) -> int:
        """Dataset index of the current champion."""
        return self._champion

    @property
    def utility_range(self) -> AmbientRange:
        """The incremental range object (working set + box LPs)."""
        return self._range

    @property
    def halfspaces(self) -> tuple:
        """Half-spaces learned so far (read-only view for tests/metrics)."""
        return self._range.halfspaces

    def _advance(self) -> None:
        """Consume stream points whose outcome is already decided."""
        points = self.dataset.points
        while self._cursor < len(self._stream):
            challenger = self._stream[self._cursor]
            champ_point = points[self._champion]
            chall_point = points[challenger]
            # Skip: champion epsilon-dominates the challenger on all of R.
            margin = self._upper_bound(
                (1.0 - self.epsilon) * chall_point - champ_point
            )
            if margin <= 0.0:
                self._cursor += 1
                continue
            # Promote: challenger beats the champion on all of R.
            if self._upper_bound(champ_point - chall_point) <= 0.0:
                self._champion = challenger
                self._cursor += 1
                continue
            return  # undecided: this point needs a question

    def _upper_bound(self, w: np.ndarray) -> float:
        """Sound upper bound on ``max {u . w : u in R}`` via the box."""
        return float(np.sum(np.maximum(w * self._lo, w * self._hi)))

    def _refresh_box(self) -> None:
        """Tighten the bounding box after a new half-space (2d LPs).

        The box computed from the (possibly capped) working set is
        intersected with the previous box: both are valid outer bounds of
        the true range, so their intersection is the tightest sound box
        available and the box stays monotonically shrinking even when old
        half-spaces rotate out of the working set.
        """
        lo, hi = self._range.bounds()
        self._lo = np.maximum(self._lo, lo)
        self._hi = np.minimum(self._hi, hi)
