"""The utility range ``R`` as an immutable H-polytope.

:class:`UtilityPolytope` represents the intersection of the utility simplex
with the half-spaces learned from user answers (Section IV-A).  Internally
it stores the reduced-coordinate system ``A x <= b`` (see
:mod:`repro.geometry.simplex`), which is full-dimensional, and exposes all
results in ambient ``d``-dimensional utility coordinates.

Vertex enumeration strategy
---------------------------
1. Remove redundant constraints (one LP per constraint) so the H-system is
   minimal.
2. If the polytope has a strictly positive Chebyshev radius, use Qhull's
   half-space intersection (fast, robust for full-dimensional bodies).
3. Otherwise — or if Qhull fails — fall back to combinatorial enumeration:
   every ``k``-subset of constraint planes is intersected and feasible
   solutions are kept.  This also handles *flat* (lower-dimensional)
   ranges which arise when answers pin the utility vector to a face.

Both paths return the same vertex set up to deduplication tolerance; the
property-based tests in ``tests/geometry`` cross-check them.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
from typing import Any, Generic, TypeVar

import numpy as np
from scipy.spatial import HalfspaceIntersection, QhullError

from repro.errors import EmptyRegionError, VertexEnumerationError
from repro.geometry import lp, simplex
from repro.geometry.hyperplane import PreferenceHalfspace
from repro.utils.rng import RngLike
from repro.utils.validation import require_vector

_T = TypeVar("_T")


class _cached(Generic[_T]):
    """:class:`functools.cached_property` without its lock.

    On Python 3.11 ``cached_property`` holds one lock per property, shared
    by every instance, while any instance computes.  A dispatcher worker
    forked from the HTTP service's collector thread while the event-loop
    thread was enumerating an interactive session's vertices inherits
    that lock held by a thread it does not have, and hangs on its first
    computation.  Two threads racing here may both compute; the value is
    a pure function of the immutable instance, so either result is right.
    """

    def __init__(self, func: Callable[[Any], _T]) -> None:
        self._func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, instance: Any, owner: type | None = None) -> _T:
        if instance is None:
            return self  # type: ignore[return-value]
        value = self._func(instance)
        # The instance attribute now shadows this non-data descriptor.
        instance.__dict__[self._name] = value
        return value


#: Minimum Chebyshev radius for Qhull to be trusted with the body.
_QHULL_MIN_RADIUS = 1e-7
#: Decimal places used to deduplicate enumerated vertices.
_DEDUP_DECIMALS = 8
#: Guard against combinatorial blow-up in the fallback enumerator.
_MAX_COMBINATIONS = 250_000


class UtilityPolytope:
    """Immutable utility range; intersect via :meth:`with_halfspace`.

    Parameters
    ----------
    a, b:
        Reduced-space H-representation ``A x <= b``.
    dimension:
        Ambient utility dimension ``d`` (so ``A`` has ``d - 1`` columns).
    halfspaces:
        The :class:`PreferenceHalfspace` objects accumulated so far, for
        provenance; the base simplex facets are not included.
    """

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        dimension: int,
        halfspaces: Sequence[PreferenceHalfspace] = (),
    ) -> None:
        self._a = np.asarray(a, dtype=float)
        self._b = np.asarray(b, dtype=float)
        if self._a.ndim != 2 or self._a.shape[1] != dimension - 1:
            raise ValueError(
                f"constraint matrix must have {dimension - 1} columns, "
                f"got shape {self._a.shape}"
            )
        if self._b.shape != (self._a.shape[0],):
            raise ValueError("constraint vector length mismatch")
        self._dimension = int(dimension)
        self._halfspaces = tuple(halfspaces)

    # -- construction -------------------------------------------------------

    @classmethod
    def simplex(cls, dimension: int) -> "UtilityPolytope":
        """The whole utility space ``U`` for ``dimension`` attributes."""
        a, b = simplex.simplex_constraints(dimension)
        return cls(a, b, dimension)

    def with_halfspace(self, halfspace: PreferenceHalfspace) -> "UtilityPolytope":
        """Return ``R ∩ h⁺`` — the range after one more answer."""
        if halfspace.dimension != self._dimension:
            raise ValueError(
                f"half-space dimension {halfspace.dimension} does not match "
                f"polytope dimension {self._dimension}"
            )
        normal, offset = halfspace.reduced()
        # a . x >= b  ->  (-a) . x <= -b
        a = np.vstack([self._a, -normal[None, :]])
        b = np.append(self._b, -offset)
        return UtilityPolytope(
            a, b, self._dimension, self._halfspaces + (halfspace,)
        )

    def with_halfspaces(
        self, halfspaces: Iterable[PreferenceHalfspace]
    ) -> "UtilityPolytope":
        """Intersect with several half-spaces at once."""
        poly = self
        for halfspace in halfspaces:
            poly = poly.with_halfspace(halfspace)
        return poly

    # -- basic properties ----------------------------------------------------

    @property
    def dimension(self) -> int:
        """Ambient utility dimension ``d``."""
        return self._dimension

    @property
    def reduced_dimension(self) -> int:
        """Dimension ``d - 1`` of the reduced working space."""
        return self._dimension - 1

    @property
    def n_constraints(self) -> int:
        """Number of rows in the reduced H-representation."""
        return int(self._a.shape[0])

    @property
    def halfspaces(self) -> tuple[PreferenceHalfspace, ...]:
        """Preference half-spaces accumulated through intersections."""
        return self._halfspaces

    @property
    def constraints(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the reduced H-representation ``(A, b)``."""
        return self._a.copy(), self._b.copy()

    # -- geometry ------------------------------------------------------------

    @_cached
    def _chebyshev(self) -> tuple[np.ndarray, float] | None:
        try:
            return lp.chebyshev_center(self._a, self._b)
        except lp.InfeasibleLP:
            return None

    def is_empty(self) -> bool:
        """Whether the range contains no utility vector at all."""
        return self._chebyshev is None

    def chebyshev_center(self) -> tuple[np.ndarray, float]:
        """Ambient Chebyshev centre and reduced-space inscribed radius.

        Raises
        ------
        EmptyRegionError
            If the range is empty.
        """
        if self._chebyshev is None:
            raise EmptyRegionError("utility range is empty")
        x, radius = self._chebyshev
        return simplex.lift_point(x), radius

    def interior_point(self) -> np.ndarray:
        """Any point strictly inside the range (ambient coordinates)."""
        return self.chebyshev_center()[0]

    def contains(self, u: np.ndarray, tol: float = 1e-9) -> bool:
        """Ambient membership test ``u in R`` (up to ``tol``)."""
        u = require_vector(u, "u", size=self._dimension)
        if abs(float(u.sum()) - 1.0) > max(tol, 1e-7):
            return False
        x = simplex.reduce_point(u)
        return bool(np.all(self._a @ x <= self._b + tol))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Outer rectangle ``(e_min, e_max)`` in ambient coordinates.

        Computed with ``2 (d-1)`` support LPs plus the implied bounds for
        the dropped last coordinate.
        """
        if self.is_empty():
            raise EmptyRegionError("utility range is empty")
        k = self.reduced_dimension
        e_min = np.empty(self._dimension)
        e_max = np.empty(self._dimension)
        for i in range(k):
            direction = np.zeros(k)
            direction[i] = 1.0
            e_max[i] = lp.support_value(self._a, self._b, direction)
            e_min[i] = -lp.support_value(self._a, self._b, -direction)
        ones = np.ones(k)
        e_min[-1] = 1.0 - lp.support_value(self._a, self._b, ones)
        e_max[-1] = 1.0 + lp.support_value(self._a, self._b, -ones)
        return e_min, e_max

    def pruned(self) -> "UtilityPolytope":
        """Return an equivalent polytope without redundant constraints.

        Keeping the H-system minimal keeps every subsequent LP, Qhull call
        and hit-and-run step cheap as the interaction accumulates answers.
        """
        if self.is_empty():
            return self
        keep = np.ones(self.n_constraints, dtype=bool)
        for i in range(self.n_constraints):
            if int(keep.sum()) <= self.reduced_dimension + 1:
                break
            selected = np.flatnonzero(keep)
            position = int(np.searchsorted(selected, i))
            if lp.constraint_is_redundant(
                self._a[keep], self._b[keep], index=position
            ):
                keep[i] = False
        return UtilityPolytope(
            self._a[keep], self._b[keep], self._dimension, self._halfspaces
        )

    # -- vertices ------------------------------------------------------------

    @_cached
    def _vertices_raw(self) -> np.ndarray:
        """Unrounded reduced vertices, one representative per dedup class.

        Representatives are ordered by their rounded lexicographic key, so
        rounding them reproduces :attr:`_vertices` exactly.
        """
        if self.is_empty():
            raise EmptyRegionError("utility range is empty")
        if self.reduced_dimension == 1:
            reduced = self._vertices_interval_raw()
        else:
            reduced = self._vertices_qhull_raw()
            if reduced is None:
                reduced = self._vertices_combinatorial_raw()
        if reduced.shape[0] == 0:
            raise VertexEnumerationError("no vertices found for polytope")
        rounded = np.round(reduced, _DEDUP_DECIMALS)
        _, index = np.unique(rounded, axis=0, return_index=True)
        return reduced[index]

    @_cached
    def _vertices(self) -> np.ndarray:
        reduced = np.unique(
            np.round(self._vertices_raw, _DEDUP_DECIMALS), axis=0
        )
        return simplex.lift_points(reduced)

    def vertices(self) -> np.ndarray:
        """Extreme utility vectors ``E`` of the range, ambient, ``(m, d)``.

        Results are cached on the (immutable) instance.
        """
        return self._vertices.copy()

    def raw_vertices(self) -> np.ndarray:
        """Reduced-space vertex representatives *before* output rounding.

        One unrounded point per :meth:`vertices` row, in the same order.
        :class:`repro.geometry.range.ExactRange` clips these directly so
        that floating-point error does not compound across incremental
        updates; everything user-facing should prefer :meth:`vertices`.
        """
        return self._vertices_raw.copy()

    def _vertices_interval(self) -> np.ndarray:
        """1-d special case, rounded: the range is an interval."""
        points = self._vertices_interval_raw()
        return np.unique(np.round(points, _DEDUP_DECIMALS), axis=0)

    def _vertices_interval_raw(self) -> np.ndarray:
        """1-d special case: the range is an interval (unrounded)."""
        lower, upper = -np.inf, np.inf
        for coeff, bound in zip(self._a[:, 0], self._b):
            if coeff > 0:
                upper = min(upper, bound / coeff)
            elif coeff < 0:
                lower = max(lower, bound / coeff)
            elif bound < 0:
                raise EmptyRegionError("utility range is empty")
        if lower > upper + 1e-12:
            raise EmptyRegionError("utility range is empty")
        return np.array([[lower], [upper]])

    def _vertices_qhull(self) -> np.ndarray | None:
        """Qhull half-space intersection, rounded; ``None`` if unusable."""
        points = self._vertices_qhull_raw()
        if points is None:
            return None
        return np.unique(np.round(points, _DEDUP_DECIMALS), axis=0)

    def _vertices_qhull_raw(self) -> np.ndarray | None:
        """Qhull half-space intersection; ``None`` if unusable here."""
        center = self._chebyshev
        if center is None or center[1] < _QHULL_MIN_RADIUS:
            return None
        # Qhull expects rows (a_i, -b_i) meaning a_i . x - b_i <= 0.
        system = np.hstack([self._a, -self._b[:, None]])
        try:
            intersection = HalfspaceIntersection(system, center[0])
        except (QhullError, ValueError):
            return None
        points = intersection.intersections
        points = points[np.all(np.isfinite(points), axis=1)]
        if points.shape[0] == 0:
            return None
        return points

    def _vertices_combinatorial(self) -> np.ndarray:
        """Exact fallback, rounded; see :meth:`_vertices_combinatorial_raw`."""
        points = self._vertices_combinatorial_raw()
        return np.unique(np.round(points, _DEDUP_DECIMALS), axis=0)

    def _vertices_combinatorial_raw(self) -> np.ndarray:
        """Exact fallback: intersect every ``k``-subset of facet planes."""
        minimal = self.pruned()
        a, b = minimal._a, minimal._b
        k = self.reduced_dimension
        m = a.shape[0]
        n_combos = _n_combinations(m, k)
        if n_combos > _MAX_COMBINATIONS:
            raise VertexEnumerationError(
                f"combinatorial enumeration too large: C({m}, {k}) = {n_combos}"
            )
        found: list[np.ndarray] = []
        for rows in itertools.combinations(range(m), k):
            sub_a = a[list(rows)]
            sub_b = b[list(rows)]
            try:
                point = np.linalg.solve(sub_a, sub_b)
            except np.linalg.LinAlgError:
                continue
            if np.all(a @ point <= b + 1e-8):
                found.append(point)
        if not found:
            # A flat polytope may be a single point defined by > k planes in
            # near-degenerate position; use the Chebyshev centre.
            center = self._chebyshev
            if center is not None:
                found.append(center[0])
        if not found:
            return np.empty((0, k))
        return np.array(found)

    # -- volume --------------------------------------------------------------

    def volume(self) -> float:
        """Exact volume of the range in reduced coordinates.

        Computed as the convex-hull volume of the enumerated vertices
        (Qhull).  Flat (lower-dimensional) ranges have volume 0.  Note
        the measure lives in the ``(d-1)``-dimensional reduced space; use
        :meth:`volume_fraction` to compare ranges of one dimensionality.
        """
        vertices = self._vertices  # ambient, cached
        reduced = vertices[:, :-1]
        k = self.reduced_dimension
        if reduced.shape[0] <= k:
            return 0.0
        if k == 1:
            return float(reduced.max() - reduced.min())
        from scipy.spatial import ConvexHull

        try:
            return float(ConvexHull(reduced).volume)
        except QhullError:
            return 0.0

    def volume_fraction(self) -> float:
        """This range's share of the whole utility simplex's volume.

        The reduced simplex ``{x >= 0, sum(x) <= 1}`` has volume
        ``1 / (d-1)!``, so the fraction is ``volume() * (d-1)!``.
        """
        import math

        return self.volume() * math.factorial(self.reduced_dimension)

    # -- sampling ------------------------------------------------------------

    def sample(self, n: int, rng: RngLike = None) -> np.ndarray:
        """Draw ``n`` approximately uniform utility vectors from the range.

        Uses hit-and-run (:func:`repro.geometry.sampling.hit_and_run`),
        ``n`` independent chains that all start at the Chebyshev centre.
        For flat ranges (radius ~ 0) the walk cannot move, so the centre
        is returned ``n`` times.
        """
        from repro.geometry import sampling  # local import avoids a cycle

        if self.is_empty():
            raise EmptyRegionError("utility range is empty")
        center, radius = self._chebyshev
        if radius < 1e-12 or n == 0:
            reduced = np.tile(center, (max(n, 0), 1))
        else:
            reduced = sampling.hit_and_run(
                self._a, self._b, start=center, n_samples=n, rng=rng
            )
        return simplex.lift_points(reduced)

    # -- dunder --------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"UtilityPolytope(d={self._dimension}, "
            f"constraints={self.n_constraints}, "
            f"answers={len(self._halfspaces)})"
        )


def _n_combinations(m: int, k: int) -> int:
    """``C(m, k)`` without importing math.comb at every call site."""
    import math

    if k > m:
        return 0
    return math.comb(m, k)
