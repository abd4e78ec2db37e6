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
* :class:`~repro.geometry.polytope.UtilityPolytope` — the utility range
  ``R`` as an H-polytope with vertex enumeration and sampling.
* :mod:`~repro.geometry.sphere` — the paper's iterative outer sphere
  (Lemma 3) and the LP inner sphere used by algorithm AA.
* :mod:`~repro.geometry.range` — the incremental :class:`UtilityRange`
  abstraction (:class:`ExactRange` / :class:`AmbientRange`) every
  algorithm maintains its learned information behind.
* :mod:`~repro.geometry.lp` — typed wrappers over scipy's bundled HiGHS
  (the model and options of ``linprog(method="highs")``, called directly)
  plus the pluggable :class:`LPBackend` seam.
"""

from repro.geometry.hyperplane import PreferenceHalfspace, preference_halfspace
from repro.geometry.lp import (
    LPBackend,
    ScipyHighsBackend,
    active_backend,
    use_backend,
)
from repro.geometry.polytope import UtilityPolytope
from repro.geometry.range import (
    AmbientRange,
    ExactRange,
    RangeConfig,
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
    "UtilityPolytope",
    "UtilityRange",
    "ExactRange",
    "AmbientRange",
    "RangeConfig",
    "RangeStats",
    "LPBackend",
    "ScipyHighsBackend",
    "active_backend",
    "use_backend",
    "Sphere",
    "inner_sphere",
    "minimum_enclosing_sphere",
    "ritter_sphere",
    "sample_simplex",
]
