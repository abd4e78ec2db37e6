"""Computational-geometry substrate for interactive regret queries.

The utility space :math:`\\mathcal{U} = \\{u \\ge 0, \\sum_i u_i = 1\\}` is a
(d-1)-dimensional simplex embedded in :math:`\\mathbb{R}^d`.  To make vertex
enumeration, Chebyshev centres and hit-and-run sampling well-posed, all
polytope computations run in *reduced coordinates*: the first ``d - 1``
components ``x`` of a utility vector, with ``u_d = 1 - sum(x)`` implicit
(:mod:`repro.geometry.simplex`).

Public surface:

* :class:`~repro.geometry.hyperplane.PreferenceHalfspace` — the half-space
  ``u . (winner - loser) >= 0`` learned from one user answer (Lemma 1).
* :mod:`~repro.geometry.sphere` — the paper's iterative outer sphere
  (Lemma 3) and the LP inner sphere used by algorithm AA.
* :mod:`~repro.geometry.range` — the incremental :class:`UtilityRange`
  abstraction every algorithm maintains its learned information behind:
  :class:`ExactRange`, the utility range ``R`` as an H-polytope with its
  Chebyshev centre, vertex set and sampler, and :class:`AmbientRange`,
  its LP-surrogate counterpart.
* :mod:`~repro.geometry.lp` — typed wrappers over scipy's bundled HiGHS
  (the model and options of ``linprog(method="highs")``, called directly),
  with the LP cache and block-diagonal batching in front of the solver.
"""

from repro.geometry.hyperplane import PreferenceHalfspace, preference_halfspace
from repro.geometry.range import (
    AmbientRange,
    ExactRange,
    RangeStats,
    UtilityRange,
)
from repro.geometry.sphere import (
    Sphere,
    inner_sphere,
    minimum_enclosing_sphere,
    ritter_sphere,
)
from repro.geometry.sampling import sample_simplex

__all__ = [
    "PreferenceHalfspace",
    "preference_halfspace",
    "UtilityRange",
    "ExactRange",
    "AmbientRange",
    "RangeStats",
    "Sphere",
    "inner_sphere",
    "minimum_enclosing_sphere",
    "ritter_sphere",
    "sample_simplex",
]
