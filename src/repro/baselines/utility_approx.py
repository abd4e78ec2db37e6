"""UtilityApprox (Nanongkai et al.; SIGMOD 2012) — the fake-point baseline.

The first interactive regret algorithm.  It never shows real tuples:
each round it fabricates two artificial points that isolate a single
attribute weight and binary-searches the user's utility vector, one
coordinate ratio at a time.  Section II of the paper recounts its main
weakness — users may be shown attractive tuples that do not exist — and
it is included here for completeness of the baseline suite.

Implementation: the ratio ``u_k / (u_k + u_d)`` is binary-searched for
every ``k < d`` by presenting the fake pair

* ``p_a`` — value ``m`` on attribute ``k``, 0 elsewhere,
* ``p_b`` — value ``1 - m`` on attribute ``d``, 0 elsewhere,

for midpoint ``m``; preferring ``p_a`` means ``u_k m >= u_d (1 - m)``,
which halves the feasible ratio interval.  Rounds cycle through the
coordinates until every interval is narrower than ``tolerance``; the
estimated utility vector is then assembled and the best real tuple for
it is returned.  With enough rounds the estimate converges to the true
vector, so the regret ratio goes to 0 — but the number of questions grows
like ``(d - 1) log(1 / tolerance)`` regardless of the data, the behaviour
the UH paper criticised.
"""

from __future__ import annotations

import numpy as np

from repro.core.session import InteractiveAlgorithm, Question, validate_epsilon
from repro.data.datasets import Dataset
from repro.errors import InteractionError
from repro.geometry.vectors import top_point_index


class UtilityApproxSession(InteractiveAlgorithm):
    """One interactive session of UtilityApprox.

    Parameters
    ----------
    dataset:
        The searched dataset (fake points are built in its attribute
        space).
    epsilon:
        Regret threshold; converted into a per-ratio binary-search
        ``tolerance`` of ``epsilon / (2 d)`` (a sufficient condition for
        the final utility-estimate error to keep regret below epsilon on
        normalised data).
    """

    family = "utility-approx"

    def __init__(self, dataset: Dataset, epsilon: float = 0.1) -> None:
        super().__init__(dataset)
        self.epsilon = validate_epsilon(epsilon)
        self.tolerance = epsilon / (2.0 * dataset.dimension)
        d = dataset.dimension
        # Feasible interval of the ratio u_k / (u_k + u_d) per attribute.
        self._lo = np.zeros(d - 1)
        self._hi = np.ones(d - 1)
        self._active = self._next_active()

    # -- InteractiveAlgorithm hooks ---------------------------------------------

    def _propose(self) -> Question:
        if self._active is None:
            raise InteractionError("binary search already converged")
        k = self._active
        # Preferring p_a certifies ratio >= 1 - m, so choose m such that
        # the threshold 1 - m bisects the current interval.
        threshold = 0.5 * (self._lo[k] + self._hi[k])
        midpoint = 1.0 - threshold
        d = self.dataset.dimension
        p_a = np.zeros(d)
        p_a[k] = midpoint
        p_b = np.zeros(d)
        p_b[d - 1] = 1.0 - midpoint
        # Fake points are not dataset members; indices -1/-2 mark them and
        # Question's distinctness check still holds.
        return Question(index_i=-1, index_j=-2, p_i=p_a, p_j=p_b)

    def _update(self, question: Question, prefers_first: bool) -> None:
        k = self._active
        threshold = 1.0 - float(question.p_i[k])
        # prefers p_a  =>  u_k * m >= u_d * (1 - m)  =>  ratio >= 1 - m.
        if prefers_first:
            self._lo[k] = max(self._lo[k], threshold)
        else:
            self._hi[k] = min(self._hi[k], threshold)
        self._active = self._next_active()

    def _finished(self) -> bool:
        return self._active is None

    def recommend(self) -> int:
        return top_point_index(self.dataset.points, self.estimated_utility())

    # -- state (checkpoint / resume) ----------------------------------------------

    def _extra_state(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "tolerance": float(self.tolerance),
            "lo": np.array(self._lo, dtype=float),
            "hi": np.array(self._hi, dtype=float),
            "active": None if self._active is None else int(self._active),
        }

    def _restore_extra(self, extra: dict) -> None:
        self.epsilon = validate_epsilon(extra["epsilon"])
        self.tolerance = float(extra["tolerance"])
        self._lo = np.array(extra["lo"], dtype=float)
        self._hi = np.array(extra["hi"], dtype=float)
        active = extra["active"]
        self._active = None if active is None else int(active)

    # -- internals ---------------------------------------------------------------

    def estimated_utility(self) -> np.ndarray:
        """The utility vector implied by the current ratio intervals.

        From ``r_k = u_k / (u_k + u_d)`` we get ``u_k = u_d r_k / (1 -
        r_k)``; fixing ``u_d = 1`` and renormalising yields a simplex
        vector.
        """
        ratios = 0.5 * (self._lo + self._hi)
        ratios = np.clip(ratios, 1e-9, 1.0 - 1e-9)
        weights = np.append(ratios / (1.0 - ratios), 1.0)
        return weights / weights.sum()

    def _next_active(self) -> int | None:
        """The widest unfinished ratio interval, or ``None`` when done."""
        widths = self._hi - self._lo
        k = int(np.argmax(widths))
        if widths[k] <= self.tolerance:
            return None
        return k
