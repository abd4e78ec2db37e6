"""Preference hyper-planes and half-spaces (Section IV-A of the paper).

For a pair of points :math:`\\langle p_i, p_j \\rangle` the hyper-plane

.. math:: h_{i,j} = \\{ r : r \\cdot (p_i - p_j) = 0 \\}

passes through the origin.  By Lemma 1, a user who prefers ``p_i`` to
``p_j`` has a utility vector in the positive half-space
:math:`h_{i,j}^+ = \\{u : u \\cdot (p_i - p_j) > 0\\}`.  We represent learned
answers with :class:`PreferenceHalfspace`, whose ``normal`` is the
difference ``winner - loser``; every utility vector consistent with the
answer satisfies ``u . normal >= 0`` (the boundary has measure zero, so the
non-strict form is used throughout, as in the reference implementations of
[5] and [10]).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GeometryError
from repro.geometry import simplex
from repro.utils.validation import require_vector


@dataclass(frozen=True)
class PreferenceHalfspace:
    """The half-space ``{u : u . normal >= 0}`` learned from one answer.

    Attributes
    ----------
    normal:
        The ambient normal ``winner - loser``.
    winner_index, loser_index:
        Optional dataset indices of the compared points, kept for
        provenance (useful in logs and tests); ``-1`` when unknown.
    """

    normal: np.ndarray
    winner_index: int = -1
    loser_index: int = -1
    _unit: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        normal = require_vector(self.normal, "normal")
        norm = float(np.linalg.norm(normal))
        if norm == 0.0:
            raise GeometryError(
                "degenerate preference half-space: winner equals loser"
            )
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "_unit", normal / norm)

    @property
    def dimension(self) -> int:
        """Ambient dimension ``d`` of the half-space."""
        return int(self.normal.shape[0])

    @property
    def unit_normal(self) -> np.ndarray:
        """The normal scaled to unit Euclidean length."""
        return self._unit

    def contains(self, u: np.ndarray, tol: float = 1e-12) -> bool:
        """Whether utility vector ``u`` is consistent with the answer."""
        u = require_vector(u, "u", size=self.dimension)
        return bool(float(u @ self.normal) >= -tol)

    def flipped(self) -> "PreferenceHalfspace":
        """The opposite answer: the half-space of ``loser > winner``."""
        return PreferenceHalfspace(
            -self.normal,
            winner_index=self.loser_index,
            loser_index=self.winner_index,
        )

    def reduced(self) -> tuple[np.ndarray, float]:
        """Reduced-coordinate form ``(a, b)`` meaning ``a . x >= b``."""
        return simplex.reduce_normal(self.normal)


def preference_halfspace(
    winner: np.ndarray,
    loser: np.ndarray,
    winner_index: int = -1,
    loser_index: int = -1,
) -> PreferenceHalfspace:
    """Build the half-space for "user prefers ``winner`` to ``loser``"."""
    winner = require_vector(winner, "winner")
    loser = require_vector(loser, "loser", size=winner.shape[0])
    return PreferenceHalfspace(
        winner - loser, winner_index=winner_index, loser_index=loser_index
    )


def answer_halfspace(
    points: np.ndarray, index_i: int, index_j: int, prefers_first: bool
) -> PreferenceHalfspace:
    """The half-space one answered question ``<p_i, p_j>`` induces.

    The answer orders the pair into winner and loser; the winner's point
    must score at least the loser's (Lemma 1).  Every algorithm family
    derives its half-spaces here, so the update previews the engines
    peek stay bit-identical to the update that later applies them.
    """
    winner, loser = (
        (index_i, index_j) if prefers_first else (index_j, index_i)
    )
    return preference_halfspace(
        points[winner], points[loser],
        winner_index=winner, loser_index=loser,
    )

