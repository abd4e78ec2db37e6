"""Utility-function arithmetic shared across the package.

The paper models preferences with linear utility functions
``f_u(p) = u . p`` (Section III).  These helpers implement the handful of
vectorised scoring operations every algorithm needs: batch utilities,
top-1 lookup, and the regret ratio itself.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require_matrix, require_vector


def utilities(points: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Utility ``f_u(p) = u . p`` of every row of ``points``.

    >>> utilities(np.array([[0.5, 0.8], [1.0, 0.0]]), np.array([0.3, 0.7]))
    array([0.71, 0.3 ])
    """
    points = require_matrix(points, "points")
    u = require_vector(u, "u", size=points.shape[1])
    return points @ u


def top_point_index(points: np.ndarray, u: np.ndarray) -> int:
    """Index of the point with the highest utility w.r.t. ``u``."""
    return int(np.argmax(utilities(points, u)))


def regret_ratio(points: np.ndarray, q: np.ndarray, u: np.ndarray) -> float:
    """Regret ratio of point ``q`` over ``points`` w.r.t. ``u`` (Section III).

    .. math:: \\frac{\\max_p f_u(p) - f_u(q)}{\\max_p f_u(p)}

    >>> data = np.array([[0.5, 0.8], [0.3, 0.7]])
    >>> round(regret_ratio(data, data[1], np.array([0.3, 0.7])), 2)
    0.18
    """
    values = utilities(points, u)
    best = float(values.max())
    if best <= 0.0:
        raise ValueError(
            "regret ratio undefined: best utility is non-positive "
            "(are attributes normalised to (0, 1]?)"
        )
    q = require_vector(q, "q", size=points.shape[1])
    return (best - float(q @ u)) / best


def regret_ratios(points: np.ndarray, q: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Regret ratio of ``q`` w.r.t. every row of ``us`` at once."""
    points = require_matrix(points, "points")
    us = require_matrix(us, "us", columns=points.shape[1])
    q = require_vector(q, "q", size=points.shape[1])
    scores = us @ points.T
    best = scores.max(axis=1)
    if np.any(best <= 0.0):
        raise ValueError("regret ratio undefined for a non-positive best utility")
    return (best - us @ q) / best
