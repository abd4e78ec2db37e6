"""Mapping between the utility simplex and full-dimensional reduced space.

A utility vector lives on the standard simplex

.. math:: \\mathcal{U} = \\{ u \\in \\mathbb{R}^d : u_i \\ge 0,\\ \\sum_i u_i = 1 \\},

which has affine dimension ``d - 1``.  Polytope algorithms (Qhull, Chebyshev
centres, hit-and-run) need *full-dimensional* bodies, so we drop the last
coordinate:

.. math:: x = (u_1, \\ldots, u_{d-1}), \\qquad u_d = 1 - \\textstyle\\sum_i x_i.

In reduced space the simplex becomes ``{x >= 0, sum(x) <= 1}`` which is
full-dimensional, and every ambient half-space ``u . w >= 0`` becomes an
affine half-space in ``x`` (see :func:`reduce_normal`).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require_matrix, require_vector


def reduce_point(u: np.ndarray) -> np.ndarray:
    """Project an ambient utility vector to reduced coordinates.

    >>> reduce_point(np.array([0.2, 0.3, 0.5]))
    array([0.2, 0.3])
    """
    u = require_vector(u, "u")
    return u[:-1].copy()


def lift_point(x: np.ndarray) -> np.ndarray:
    """Lift reduced coordinates back to the ambient simplex hyper-plane.

    >>> lift_point(np.array([0.2, 0.3]))
    array([0.2, 0.3, 0.5])
    """
    x = require_vector(x, "x")
    return np.append(x, 1.0 - float(np.sum(x)))


def lift_points(xs: np.ndarray) -> np.ndarray:
    """Vectorised :func:`lift_point` for an ``(m, d-1)`` array of points."""
    xs = require_matrix(xs, "xs")
    last = 1.0 - xs.sum(axis=1, keepdims=True)
    return np.hstack([xs, last])


def reduce_normal(w: np.ndarray) -> tuple[np.ndarray, float]:
    """Rewrite the ambient half-space ``u . w >= 0`` in reduced coordinates.

    Substituting ``u_d = 1 - sum(x)`` into ``u . w >= 0`` gives

    .. math:: \\sum_{i<d} x_i (w_i - w_d) + w_d \\ge 0
              \\iff a \\cdot x \\ge b,

    with ``a_i = w_i - w_d`` and ``b = -w_d``.

    Returns
    -------
    (a, b):
        such that the ambient condition is equivalent to ``a . x >= b``.
    """
    w = require_vector(w, "w")
    if w.shape[0] < 2:
        raise ValueError("ambient dimension must be at least 2")
    a = w[:-1] - w[-1]
    b = -float(w[-1])
    return a, b


def simplex_constraints(d: int) -> tuple[np.ndarray, np.ndarray]:
    """H-representation ``A x <= b`` of the reduced simplex for dimension d.

    The reduced simplex is ``{x in R^(d-1) : x >= 0, sum(x) <= 1}``:
    ``d - 1`` non-negativity constraints plus one sum constraint, i.e. the
    ``d`` facets of the original utility simplex.
    """
    if d < 2:
        raise ValueError(f"utility dimension must be >= 2, got {d}")
    k = d - 1
    a_nonneg = -np.eye(k)
    b_nonneg = np.zeros(k)
    a_sum = np.ones((1, k))
    b_sum = np.ones(1)
    return np.vstack([a_nonneg, a_sum]), np.concatenate([b_nonneg, b_sum])


def project_onto_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of an arbitrary vector onto the utility simplex.

    The standard sort-based algorithm (Held, Wolfe & Crowder): find the
    largest ``rho`` with ``u_rho - theta > 0`` for the running threshold
    ``theta``, then clamp.  Used by drifting user models whose hidden
    utility random-walks off the simplex between rounds.

    >>> project_onto_simplex(np.array([0.3, 0.3, 0.4]))
    array([0.3, 0.3, 0.4])
    """
    v = require_vector(v, "v")
    n = v.shape[0]
    if n < 1:
        raise ValueError("cannot project an empty vector")
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - 1.0
    indices = np.arange(1, n + 1)
    rho = int(np.nonzero(u * indices > cumulative)[0][-1])
    theta = cumulative[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def on_simplex(u: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether ``u`` is a valid utility vector up to tolerance ``tol``."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        return False
    return bool(np.all(u >= -tol) and abs(float(u.sum()) - 1.0) <= tol)
