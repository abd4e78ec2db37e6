"""Enclosing and inscribed spheres of the utility range.

Algorithm EA summarises the utility range's extreme vectors with their
*outer sphere* — the smallest enclosing ball — computed with the paper's
iterative centre-mover (Section IV-B, Lemma 3): repeatedly move the centre
towards the farthest point by half the gap between the two largest
distances.  :func:`ritter_sphere` provides the classic Ritter bound used as
an ablation baseline, and :func:`inner_sphere` exposes algorithm AA's
LP-based inscribed sphere.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.geometry import lp
from repro.geometry.hyperplane import PreferenceHalfspace
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_matrix

#: Stop the iterative mover once the centre offset drops below this.
DEFAULT_OFFSET_TOL = 1e-9
DEFAULT_MAX_ITERATIONS = 1_000


@dataclass(frozen=True)
class Sphere:
    """A Euclidean ball given by ``center`` and ``radius``."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=float)
        if center.ndim != 1:
            raise ValueError(f"center must be 1-d, got shape {center.shape}")
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        object.__setattr__(self, "center", center)

    @property
    def dimension(self) -> int:
        """Ambient dimension of the ball."""
        return int(self.center.shape[0])

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        """Whether ``point`` lies inside the ball (up to ``tol``)."""
        point = np.asarray(point, dtype=float)
        return bool(np.linalg.norm(point - self.center) <= self.radius + tol)

    def features(self) -> np.ndarray:
        """Concatenated ``(center, radius)`` feature vector for RL states."""
        return np.append(self.center, self.radius)


def minimum_enclosing_sphere(
    points: np.ndarray,
    rng: RngLike = None,
    offset_tol: float = DEFAULT_OFFSET_TOL,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> Sphere:
    """Paper's iterative smallest-enclosing-ball approximation (Lemma 3).

    Starting from a random centre, each iteration finds the farthest and
    second-farthest input points and moves the centre towards the farthest
    by half the distance gap.  Lemma 3 shows the enclosing radius is
    non-increasing, so the procedure converges to a local optimum; on the
    convex-position vertex sets produced by the utility range it is in
    practice within a fraction of a percent of the exact ball (see
    ``benchmarks/bench_ablations.py``).

    Parameters
    ----------
    points:
        ``(m, d)`` array; must contain at least one point.
    rng:
        Seed/generator for the random initial centre.
    """
    points = require_matrix(points, "points")
    if points.shape[0] == 0:
        raise ValueError("cannot enclose an empty point set")
    if points.shape[0] == 1:
        return Sphere(points[0].copy(), 0.0)
    generator = ensure_rng(rng)
    # Random start near the centroid: the paper prescribes a random
    # initial centre; anchoring the randomness at the centroid avoids the
    # poor local optima a uniform start can fall into on symmetric vertex
    # sets (the mover stalls once the two largest distances tie).
    spread = points.max(axis=0) - points.min(axis=0)
    center = points.mean(axis=0) + 0.05 * spread * generator.standard_normal(
        points.shape[1]
    )
    for _ in range(max_iterations):
        distances = np.linalg.norm(points - center, axis=1)
        order = np.argsort(distances)
        farthest = points[order[-1]]
        gap = float(distances[order[-1]] - distances[order[-2]])
        offset = 0.5 * gap
        if offset < offset_tol:
            break
        direction = farthest - center
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            break
        center = center + (offset / norm) * direction
    radius = float(np.max(np.linalg.norm(points - center, axis=1)))
    return Sphere(center, radius)


def ritter_sphere(points: np.ndarray) -> Sphere:
    """Ritter's two-pass bounding sphere (deterministic ablation baseline).

    Guaranteed to enclose all points with radius at most ~1.5x the optimum;
    used in ``bench_ablations.py`` to quantify the value of the paper's
    iterative refinement.
    """
    points = require_matrix(points, "points")
    if points.shape[0] == 0:
        raise ValueError("cannot enclose an empty point set")
    first = points[0]
    far_a = points[int(np.argmax(np.linalg.norm(points - first, axis=1)))]
    far_b = points[int(np.argmax(np.linalg.norm(points - far_a, axis=1)))]
    center = 0.5 * (far_a + far_b)
    radius = 0.5 * float(np.linalg.norm(far_b - far_a))
    for point in points:
        distance = float(np.linalg.norm(point - center))
        if distance > radius:
            # Grow the ball to just include the point.
            new_radius = 0.5 * (radius + distance)
            center = center + (point - center) * ((distance - radius) / (2 * distance))
            radius = new_radius
    return Sphere(center, radius)


def inner_sphere(
    halfspaces: Sequence[PreferenceHalfspace], dimension: int
) -> Sphere:
    """Algorithm AA's inscribed sphere of the utility range (Section IV-C).

    Thin wrapper over :func:`repro.geometry.lp.ambient_inner_sphere`; the
    centre always lies on the simplex and the radius is the Euclidean
    distance to the closest learned hyper-plane or simplex facet.

    Raises
    ------
    repro.errors.EmptyRegionError
        If the range is empty.
    """
    center, radius = lp.ambient_inner_sphere(halfspaces, dimension)
    return Sphere(center, max(radius, 0.0))
