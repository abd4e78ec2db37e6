"""Incremental utility-range state behind one :class:`UtilityRange` protocol.

Every interactive algorithm in this package narrows the utility range
``R`` by one half-space per answered question (Section IV of the paper).
This module keeps that state for all of them:

* :class:`UtilityRange` — the protocol: one documented
  :meth:`~UtilityRange.update` (a half-space that would empty ``R`` is
  dropped), plus per-instance :class:`RangeStats` counters.
* :class:`ExactRange` — vertex-maintaining (EA, UH-Random, UH-Simplex),
  the one exact type: it holds the reduced H-representation ``A x <= b``
  (see :mod:`repro.geometry.simplex`), its Chebyshev centre and its
  vertex set.  Adding a half-space *clips* the current vertex set
  against the new plane (keep the satisfied vertices, intersect every
  kept–cut segment with the plane, take the extreme points of the cut
  face) instead of re-enumerating from scratch; the from-scratch
  enumeration (1-d interval, Qhull half-space intersection, or the
  combinatorial fallback) stays as the cross-checked fallback for
  degenerate cuts.  Emptiness is read off the vertex signs — an LP is
  solved only to *confirm* a suspected empty update, so tolerance
  slivers resolve exactly as the LP says.
* :class:`AmbientRange` — half-space list summarised by LP surrogates
  (inner sphere, outer rectangle, split margins) for AA, SinglePass and
  Adaptive, with an optional working-set cap on the constraint list.

All LP work routes through :func:`repro.geometry.lp.solve` and
:func:`~repro.geometry.lp.solve_many`, and therefore composes with the
engine's :class:`~repro.geometry.lp.LPCache`.  :class:`ExactRange`
keeps its H-representation exactly as a from-scratch range built by
:meth:`ExactRange.from_halfspaces` would (constraints always appended,
redundancy-pruned past :data:`PRUNE_ABOVE` rows), so every LP-derived
quantity — Chebyshev centres, the H-representation hit-and-run walks —
is bit-identical to the from-scratch path.
"""

from __future__ import annotations

import abc
import dataclasses
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from repro.errors import (
    ConfigurationError,
    EmptyRegionError,
    PersistenceError,
    VertexEnumerationError,
)
from repro.geometry import lp, sampling, simplex
from repro.geometry.hyperplane import PreferenceHalfspace
from repro.obs.tracer import NULL_SPAN, active_tracer
from repro.utils.rng import RngLike
from repro.utils.validation import require_vector

#: Sign tolerance classifying vertices against a new cutting plane.
#: Deliberately tiny (float-noise scale): from-scratch enumeration treats
#: the new constraint exactly, so a vertex violating it even marginally is
#: replaced by its edge crossings there — the clip must do the same for
#: the two paths to round to identical vertex sets.
_CLIP_TOL = 1e-12
#: A clip candidate only counts as a cut-face vertex if at least
#: ``reduced_dim - 1`` of the existing facets are tight at it (an edge
#: crossing); crossings of non-adjacent vertex pairs fall in the face's
#: interior and fail this test.
_TIGHT_TOL = 1e-7
#: Singular values below this are treated as zero when detecting the
#: affine rank of a cut face (degenerate faces fall back to a rebuild).
_RANK_TOL = 1e-9
#: :class:`ExactRange` redundancy-prunes its H-system whenever it grows
#: beyond this many rows, keeping per-round geometry cost flat.
PRUNE_ABOVE = 24
#: Minimum Chebyshev radius for Qhull to be trusted with the body.
_QHULL_MIN_RADIUS = 1e-7
#: Decimal places used to deduplicate enumerated vertices.
_DEDUP_DECIMALS = 8
#: Guard against combinatorial blow-up in the fallback enumerator.
_MAX_COMBINATIONS = 250_000
#: :attr:`ExactRange._center` before its LP is solved (``None`` is the
#: LP's answer for an empty system).
_UNSOLVED: Any = object()


@dataclass
class RangeStats:
    """Counters one range accumulates across its lifetime.

    Attributes
    ----------
    updates:
        :meth:`UtilityRange.update` calls received.
    clips:
        Updates :class:`ExactRange` resolved incrementally (vertex clip
        or redundancy short-circuit) — i.e. without a from-scratch
        re-enumeration.
    rebuilds:
        Full vertex re-enumerations: the initial enumeration plus every
        degenerate-cut fallback.
    rejected:
        Updates dropped because they would empty the range.
    """

    updates: int = 0
    clips: int = 0
    rebuilds: int = 0
    rejected: int = 0


class UtilityRange(abc.ABC):
    """The utility range ``R`` narrowed by one half-space per answer.

    One update contract for every consumer: :meth:`update` validates the
    half-space and applies it if the narrowed range stays non-empty.  A
    half-space that would empty ``R`` — a contradictory, typically noisy,
    answer — is dropped: the range is unchanged, ``stats.rejected``
    counts it and :meth:`update` returns ``False``, so the interactive
    algorithms stop on (or continue from) the last consistent range.

    LP work issued by a range flows through the active
    :class:`~repro.geometry.lp.LPCache`; the engine reports the cache's
    solve and hit counts.
    """

    def __init__(self, dimension: int) -> None:
        if dimension < 2:
            raise ConfigurationError(
                f"utility dimension must be >= 2, got {dimension}"
            )
        self._dimension = int(dimension)
        self.stats = RangeStats()

    # -- protocol ------------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Ambient utility dimension ``d``."""
        return self._dimension

    @property
    @abc.abstractmethod
    def halfspaces(self) -> tuple[PreferenceHalfspace, ...]:
        """Half-spaces currently constraining the range (provenance)."""

    @abc.abstractmethod
    def _apply(self, halfspace: PreferenceHalfspace) -> bool:
        """Intersect with ``halfspace`` if feasible; report success."""

    def update(self, halfspace: PreferenceHalfspace) -> bool:
        """Narrow the range by one answered question.

        Returns ``True`` when the half-space was applied.  A half-space
        that would empty the range is dropped: the range is unchanged,
        ``stats.rejected`` goes up by one and this returns ``False``.
        """
        if halfspace.dimension != self._dimension:
            raise ConfigurationError(
                f"half-space dimension {halfspace.dimension} does not "
                f"match range dimension {self._dimension}"
            )
        self.stats.updates += 1
        applied = self._apply(halfspace)
        if not applied:
            self.stats.rejected += 1
        return applied

    # -- state (checkpoint / resume) -----------------------------------------

    #: Discriminator written into state dicts; overridden per subclass.
    _STATE_KIND = ""

    def get_state(self) -> dict[str, Any]:
        """The range's full mutable state as arrays and JSON-able scalars.

        The dict round-trips through :meth:`set_state` on a freshly
        constructed range of the same class, dimension and options,
        restoring the half-space list, the maintained vertex set (for
        :class:`ExactRange`) and the counters — enough for a resumed
        session to continue bit-identically.  The LP cache is *not* part
        of the state (it is an execution concern).
        """
        return {
            "kind": self._STATE_KIND,
            "dimension": self._dimension,
            "stats": dataclasses.asdict(self.stats),
            **self._body_state(),
        }

    def set_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`get_state` (same class + d).

        Keys this version no longer writes — an older ``config`` block,
        retired ``stats`` counters — are ignored.
        """
        if state.get("kind") != self._STATE_KIND:
            raise PersistenceError(
                f"range state kind {state.get('kind')!r} does not match "
                f"{type(self).__name__} (expected {self._STATE_KIND!r})"
            )
        if int(state["dimension"]) != self._dimension:
            raise PersistenceError(
                f"range state dimension {state['dimension']} does not "
                f"match range dimension {self._dimension}"
            )
        stats = state["stats"]
        self.stats = RangeStats(
            **{
                counter.name: int(stats[counter.name])
                for counter in dataclasses.fields(RangeStats)
            }
        )
        self._restore_body(state)

    @abc.abstractmethod
    def _body_state(self) -> dict[str, Any]:
        """Subclass part of :meth:`get_state`."""

    @abc.abstractmethod
    def _restore_body(self, state: dict[str, Any]) -> None:
        """Subclass part of :meth:`set_state`."""


class ExactRange(UtilityRange):
    """Vertex-maintaining range: one clip per answer, not one rebuild.

    The range holds the reduced H-representation ``A x <= b``: the
    simplex facets, then one row per applied half-space, appended in
    order (redundant or not) and redundancy-pruned once the system
    exceeds :data:`PRUNE_ABOVE` rows.  So Chebyshev centres and the
    H-representation hit-and-run walks are bit-identical to a range
    built from scratch by :meth:`from_halfspaces`.  What changes is the
    vertex set: it is maintained incrementally by clipping, and a full
    re-enumeration happens only on the first access and when a cut is
    too degenerate to clip reliably (``stats.rebuilds`` counts both).
    """

    def __init__(self, dimension: int) -> None:
        super().__init__(dimension)
        self._a, self._b = simplex.simplex_constraints(dimension)
        self._halfspaces: tuple[PreferenceHalfspace, ...] = ()
        #: Chebyshev centre and radius of ``A x <= b`` (reduced), solved
        #: at most once per H-system; ``None`` if the LP finds it empty.
        self._center: tuple[np.ndarray, float] | None = _UNSOLVED
        self._reduced: np.ndarray | None = None
        self._ambient: np.ndarray | None = None
        #: One-shot clip precomputation stashed by :func:`prefetch_updates`;
        #: consumed (and discarded) by the next ``_apply`` after an exact
        #: fingerprint check, so a stale or mismatched memo is inert.
        self._clip_memo: dict[str, Any] | None = None

    @classmethod
    def from_halfspaces(
        cls,
        dimension: int,
        halfspaces: Sequence[PreferenceHalfspace],
    ) -> "ExactRange":
        """A range constrained by ``halfspaces``, without enumeration.

        Vertices stay lazy (the first :meth:`vertices` call enumerates
        from scratch), so this stays usable in high dimensions for
        sampling-only workloads such as
        :func:`repro.eval.metrics.max_regret_ratio`.

        Raises
        ------
        EmptyRegionError
            If the half-spaces are inconsistent (empty intersection):
            unlike :meth:`update`, there is no earlier consistent state
            to fall back to.
        """
        urange = cls(dimension)
        for halfspace in halfspaces:
            urange._a, urange._b = _with_row(urange._a, urange._b, halfspace)
        urange._halfspaces = tuple(halfspaces)
        if urange._chebyshev() is None:
            raise EmptyRegionError(
                "half-spaces are inconsistent: the range is empty"
            )
        return urange

    # -- views ---------------------------------------------------------------

    @property
    def halfspaces(self) -> tuple[PreferenceHalfspace, ...]:
        """Half-spaces applied so far (rejected updates excluded)."""
        return self._halfspaces

    def vertices(self) -> np.ndarray:
        """Extreme utility vectors of the range, ambient, ``(m, d)``.

        Maintained incrementally across :meth:`update` calls; the first
        access triggers the one full enumeration.  Output is rounded to
        :data:`_DEDUP_DECIMALS` places and deduplicated; the range
        stores unrounded representatives internally so clip error does
        not compound.
        """
        if self._ambient is None:
            reduced = np.unique(
                np.round(self._reduced_vertices(), _DEDUP_DECIMALS), axis=0
            )
            self._ambient = simplex.lift_points(reduced)
        return self._ambient.copy()

    def chebyshev_center(self) -> tuple[np.ndarray, float]:
        """Ambient Chebyshev centre and reduced-space inscribed radius.

        Raises
        ------
        EmptyRegionError
            If the range is empty.
        """
        center = self._chebyshev()
        if center is None:
            raise EmptyRegionError("utility range is empty")
        x, radius = center
        return simplex.lift_point(x), radius

    def sample(self, n: int, rng: RngLike = None) -> np.ndarray:
        """Draw ``n`` approximately uniform utility vectors from the range.

        Hit-and-run (:func:`repro.geometry.sampling.hit_and_run`) over the
        range's H-representation, ``n`` independent chains from one
        start.  Once the range holds its vertices, the chains start at
        the mean of the unrounded vertices, an interior point that costs
        no LP (a single-point range returns that point ``n`` times).  A
        range with no vertex set yet (fresh, or built by
        :meth:`from_halfspaces`) never enumerates just to sample: it
        starts at the Chebyshev centre, and a flat range (radius ~ 0),
        where the walk cannot move, returns the centre ``n`` times.
        """
        if self._reduced is not None:
            start = self._reduced.mean(axis=0)
        else:
            center = self._chebyshev()
            if center is None:
                raise EmptyRegionError("utility range is empty")
            start, radius = center
            if radius < 1e-12 or n == 0:
                return simplex.lift_points(np.tile(start, (max(n, 0), 1)))
        reduced = sampling.hit_and_run(self._a, self._b, start, n, rng=rng)
        return simplex.lift_points(reduced)

    def contains(self, u: np.ndarray, tol: float = 1e-9) -> bool:
        """Ambient membership test ``u in R`` (up to ``tol``)."""
        u = require_vector(u, "u", size=self._dimension)
        if abs(float(u.sum()) - 1.0) > max(tol, 1e-7):
            return False
        x = simplex.reduce_point(u)
        return bool(np.all(self._a @ x <= self._b + tol))

    # -- update --------------------------------------------------------------

    def _apply(self, halfspace: PreferenceHalfspace) -> bool:
        tracer = active_tracer()
        update_span = (
            NULL_SPAN if tracer is None else tracer.span("range.update")
        )
        memo, self._clip_memo = self._clip_memo, None
        with update_span:
            a_rows, b_rows = _with_row(self._a, self._b, halfspace)
            halfspaces = self._halfspaces + (halfspace,)
            reduced = self._reduced_vertices()
            normal, offset = halfspace.reduced()
            if not (
                memo is not None
                and memo["reduced"] is reduced
                and memo["offset"] == offset
                and memo["normal"].tobytes() == normal.tobytes()
            ):
                memo = None
            if memo is not None:
                values = memo["values"]
                keep = memo["keep"]
            else:
                values = reduced @ normal - offset
                keep = values >= -_CLIP_TOL
            if bool(keep.all()):
                # Redundant for the current body: no vertex moves.
                self.stats.clips += 1
                if tracer is not None:
                    tracer.counter("range.clips")
                self._commit(a_rows, b_rows, halfspaces, reduced)
                return True
            if not bool(keep.any()):
                # Every vertex violates: the clip says empty.  Confirm
                # with an exact emptiness LP, so tolerance slivers
                # resolve as the LP says.
                center = _chebyshev_lp(a_rows, b_rows)
                if center is None:
                    return False
                self._commit(
                    a_rows, b_rows, halfspaces,
                    *self._enumerate(a_rows, b_rows, center),
                )
                return True
            clip_span = (
                NULL_SPAN if tracer is None else tracer.span("range.clip")
            )
            with clip_span:
                if memo is not None and memo["has_face"]:
                    face = memo["face"]
                else:
                    face = _clip_face(
                        reduced[keep], reduced[~keep],
                        values[keep], values[~keep],
                        self._a, self._b,
                    )
            if face is None:
                # Degenerate cut: fall back to the cross-checked full
                # enumeration rather than risk a wrong vertex set.
                self._commit(
                    a_rows, b_rows, halfspaces,
                    *self._enumerate(a_rows, b_rows, _UNSOLVED),
                )
                return True
            clipped = _unique_raw(np.vstack([reduced[keep], face]))
            self.stats.clips += 1
            if tracer is not None:
                tracer.counter("range.clips")
            self._commit(a_rows, b_rows, halfspaces, clipped)
            return True

    # -- state ---------------------------------------------------------------

    _STATE_KIND = "exact"

    def _body_state(self) -> dict[str, Any]:
        normals, winners, losers = halfspaces_to_arrays(
            self._halfspaces, self._dimension
        )
        return {
            "a": self._a.copy(),
            "b": self._b.copy(),
            "hs_normals": normals,
            "hs_winners": winners,
            "hs_losers": losers,
            "reduced": (
                None if self._reduced is None else self._reduced.copy()
            ),
        }

    def _restore_body(self, state: dict[str, Any]) -> None:
        self._a = np.array(state["a"], dtype=float)
        self._b = np.array(state["b"], dtype=float)
        if self._b.ndim != 1 or self._a.shape != (
            self._b.shape[0], self._dimension - 1
        ):
            raise PersistenceError(
                f"exact range state has A of shape {self._a.shape} and b "
                f"of shape {self._b.shape} for dimension {self._dimension}"
            )
        self._halfspaces = halfspaces_from_arrays(
            state["hs_normals"], state["hs_winners"], state["hs_losers"]
        )
        self._center = _UNSOLVED
        reduced = state["reduced"]
        self._reduced = None if reduced is None else np.array(
            reduced, dtype=float
        )
        # Rounded ambient vertices are a pure function of the reduced
        # set; recompute lazily rather than store them twice.
        self._ambient = None
        self._clip_memo = None

    # -- internals -----------------------------------------------------------

    def _chebyshev(self) -> tuple[np.ndarray, float] | None:
        """The Chebyshev LP of the current system, solved once."""
        if self._center is _UNSOLVED:
            self._center = _chebyshev_lp(self._a, self._b)
        return self._center

    def _commit(
        self,
        a_rows: np.ndarray,
        b_rows: np.ndarray,
        halfspaces: tuple[PreferenceHalfspace, ...],
        reduced: np.ndarray,
        center: tuple[np.ndarray, float] | None = _UNSOLVED,
    ) -> None:
        """Make ``A x <= b`` (with its vertices and Chebyshev LP, if
        solved) the range, redundancy-pruned past :data:`PRUNE_ABOVE`
        rows.  Pruning first checks emptiness (one Chebyshev LP unless
        solved), and the pruned system's own centre is solved afresh."""
        if a_rows.shape[0] > PRUNE_ABOVE:
            if center is _UNSOLVED:
                center = _chebyshev_lp(a_rows, b_rows)
            if center is not None:
                a_rows, b_rows = _prune(a_rows, b_rows)
                center = _UNSOLVED
        self._a, self._b = a_rows, b_rows
        self._halfspaces = halfspaces
        self._center = center
        self._reduced = reduced
        self._ambient = None
        self._clip_memo = None

    def _enumerate(
        self,
        a_rows: np.ndarray,
        b_rows: np.ndarray,
        center: tuple[np.ndarray, float] | None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, float] | None]:
        """From-scratch vertices of ``A x <= b`` and its Chebyshev LP
        (solved here if ``center`` is unsolved)."""
        self.stats.rebuilds += 1
        tracer = active_tracer()
        if tracer is not None:
            tracer.counter("range.rebuilds")
        with NULL_SPAN if tracer is None else tracer.span("range.rebuild"):
            if center is _UNSOLVED:
                center = _chebyshev_lp(a_rows, b_rows)
            return _raw_vertices(a_rows, b_rows, center), center

    def _reduced_vertices(self) -> np.ndarray:
        if self._reduced is None:
            self._reduced, self._center = self._enumerate(
                self._a, self._b, self._center
            )
        return self._reduced

    def __repr__(self) -> str:
        return (
            f"ExactRange(d={self._dimension}, "
            f"answers={len(self.halfspaces)}, "
            f"clips={self.stats.clips}, rebuilds={self.stats.rebuilds})"
        )


#: Margin an :meth:`AmbientRange.split_margin` optimum must clear to
#: certify that a plane's side intersects the range (AA and Adaptive).
SPLIT_TOL = 1e-7
#: Margin a witness point must reach to certify a side without an LP:
#: three orders above :data:`SPLIT_TOL`, so a certified side's LP
#: margin clears :data:`SPLIT_TOL` too and no decision can change.
CERT_TOL = 1e-4


@dataclass(frozen=True)
class _BoundProbes:
    """The ``2d`` bound probes of one :meth:`AmbientRange.bounds` call."""

    #: The working set the probes were solved on.
    halfspaces: tuple[PreferenceHalfspace, ...]
    #: ``(2d,)`` probe values ``c . x``, ``max`` probes negated.
    values: np.ndarray
    #: ``(2d, d)`` probe optimisers.
    optimisers: np.ndarray


class AmbientRange(UtilityRange):
    """Half-space-list range summarised by LP surrogates (Section IV-C).

    Never materialises the polytope: the range is the intersection of the
    utility simplex with the stored half-spaces, and everything consumers
    need is computed by small LPs — the inner sphere, the outer
    rectangle, and split margins certifying that a candidate plane cuts
    the range.  AA, SinglePass and Adaptive keep their ranges here.
    With ``max_halfspaces`` set, the
    constraint list becomes a working set: the oldest answers rotate out
    first, and dropping constraints relaxes the region — a superset — so
    every LP surrogate stays sound.  ``None`` (the default) keeps every
    answer.

    The range also keeps a *witness set*: the ``2d`` optimisers of the
    last :meth:`bounds` call, the last :meth:`inner_sphere` centre and
    the optimiser of the last update's feasibility probe, each
    re-checked against every constraint of the current working set
    within :data:`~repro.geometry.lp.FEASIBILITY_TOL`.  A witness ``u``
    with ``u . n >= CERT_TOL`` proves that ``R`` reaches the positive
    side of ``n`` without an LP (:meth:`split_margin`, and the
    feasibility probe of an update).  Like the LP cache, the set is an
    execution cache: any change to the half-space list drops it, and
    it is never part of :meth:`get_state`.

    Separately, the range keeps the *bound probes* of its last
    :meth:`bounds` call: the ``2d`` values and optimisers, and the
    working set they were solved on.  The next :meth:`bounds` call
    re-solves only the probes whose optimiser a half-space added since
    then cuts.  These do decide values, so they are part of
    :meth:`get_state`: a resumed session reuses exactly what an
    uninterrupted one would.
    """

    def __init__(
        self, dimension: int, max_halfspaces: int | None = None
    ) -> None:
        super().__init__(dimension)
        if max_halfspaces is not None and max_halfspaces < 1:
            raise ConfigurationError(
                f"max_halfspaces must be >= 1 or None, got {max_halfspaces}"
            )
        self._max_halfspaces = max_halfspaces
        self._halfspaces: list[PreferenceHalfspace] = []
        #: Valid witness points of the current working set, keyed by the
        #: LP that produced them (``"bounds"``, ``"centre"``,
        #: ``"feasible"``).
        self._witnesses: dict[str, np.ndarray] = {}
        #: The last :meth:`bounds` call's probes, or ``None`` before it.
        self._bound_probes: _BoundProbes | None = None

    @property
    def halfspaces(self) -> tuple[PreferenceHalfspace, ...]:
        """The current working set of half-spaces."""
        return tuple(self._halfspaces)

    def trial_halfspaces(
        self, halfspace: PreferenceHalfspace
    ) -> list[PreferenceHalfspace]:
        """The working set an update with ``halfspace`` would probe.

        Applies the ``max_halfspaces`` cap rotation exactly as ``_apply``
        does; :func:`prefetch_updates` uses this to build the same
        feasibility system the update itself will submit.
        """
        trial = self._halfspaces + [halfspace]
        cap = self._max_halfspaces
        if cap is not None and len(trial) > cap:
            trial = trial[-cap:]
        return trial

    def _apply(self, halfspace: PreferenceHalfspace) -> bool:
        trial = self.trial_halfspaces(halfspace)
        # A witness on the answered side lies in R ∩ H, and the trial
        # set is R's working set plus H, at most relaxed by the cap
        # rotation: the update is feasible with no LP.
        point = None
        if not self._certifies(halfspace):
            tracer = active_tracer()
            probe_span = (
                NULL_SPAN if tracer is None else tracer.span("range.feasible")
            )
            with probe_span:
                point = lp.ambient_feasible_point(trial, self._dimension)
            if point is None:
                return False
        self._halfspaces = trial
        self._witnesses = {}
        if point is not None:
            # The probe's optimiser is a point of the new range.
            self._add_witnesses("feasible", point[None, :])
        return True

    def inner_sphere(self) -> tuple[np.ndarray, float]:
        """Inner sphere ``(B_c, B_r)`` of the range (one LP).

        The centre joins the witness set.
        """
        center, radius = lp.ambient_inner_sphere(
            self._halfspaces, self._dimension
        )
        self._add_witnesses("centre", center[None, :])
        return center, radius

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Outer rectangle ``(e_min, e_max)`` of the range (up to ``2d``
        LPs).

        Re-solves only the probes :meth:`_stale_probes` marks: those
        whose last optimiser some half-space added since the last call
        cuts, or all ``2d`` when the working set is not that call's set
        with half-spaces appended (the first call, a cap rotation, a
        restore without probes).  Adding a half-space only shrinks the
        range, so an optimiser that still satisfies every added
        half-space is still optimal, and its probe keeps the value the
        solver returned for it.  The ``2d`` optimisers join the witness
        set.
        """
        stale = self._stale_probes(self._halfspaces)
        d = self._dimension
        last = self._bound_probes
        values = np.empty(2 * d) if last is None else last.values.copy()
        optimisers = (
            np.empty((2 * d, d)) if last is None else last.optimisers.copy()
        )
        values[stale], optimisers[stale] = lp.ambient_bound_probes(
            self._halfspaces, d, stale
        )
        self._bound_probes = _BoundProbes(
            tuple(self._halfspaces), values, optimisers
        )
        self._add_witnesses("bounds", optimisers)
        return values[0::2].copy(), -values[1::2]

    def _stale_probes(
        self, working: Sequence[PreferenceHalfspace]
    ) -> np.ndarray:
        """Which of the ``2d`` bound probes a :meth:`bounds` call on the
        working set ``working`` must solve, as a boolean mask.

        :func:`prefetch_updates` calls this with an update's trial set
        to stack exactly the probes the session's own call will solve.
        """
        last = self._reusable_probes(working)
        if last is None:
            return np.ones(2 * self._dimension, dtype=bool)
        added = working[len(last.halfspaces):]
        if not added:
            return np.zeros(2 * self._dimension, dtype=bool)
        normals = np.array([h.normal for h in added])
        return (last.optimisers @ normals.T < 0.0).any(axis=1)

    def _reusable_probes(
        self, working: Sequence[PreferenceHalfspace]
    ) -> _BoundProbes | None:
        """The last :meth:`bounds` call's probes if ``working`` is their
        working set with half-spaces appended, else ``None``."""
        last = self._bound_probes
        if last is None or len(working) < len(last.halfspaces):
            return None
        if any(old is not new for old, new in zip(last.halfspaces, working)):
            return None
        return last

    def split_margin(self, normals: np.ndarray) -> np.ndarray:
        """How far ``R`` crosses each row ``n`` of a ``(k, d)`` stack.

        A plane cuts ``R`` on its positive side when its margin is
        ``> SPLIT_TOL``.  A row some witness point reaches with
        ``u . n >= CERT_TOL`` is *certified*: its entry is that best
        witness value, a lower bound ``>= CERT_TOL`` on
        ``max {u . n : u in R}``, not the maximum itself.  Every other
        row is the LP maximum, from one stacked call
        (:func:`~repro.geometry.lp.ambient_split_margins`) over the
        uncertified rows only.  The margins feed ``> SPLIT_TOL``
        decisions alone, and a certified row clears that threshold on
        either reading, so certification changes no decision.
        """
        normals = np.asarray(normals, dtype=float)
        margins, certified = self._certify(normals)
        if not certified.all():
            todo = ~certified
            margins[todo] = lp.ambient_split_margins(
                self._halfspaces, self._dimension, normals[todo]
            )
        return margins

    def _certify(self, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best witness value per row of ``normals``, and which clear
        :data:`CERT_TOL`.

        Returns ``(values, certified)``: ``values[i]`` is
        ``max {u . normals[i] : u a witness}`` (``-inf`` with no
        witnesses) and ``certified[i]`` says it is ``>= CERT_TOL``.  One
        ``(w, d) x (d, k)`` matmul, no LP.
        """
        normals = np.asarray(normals, dtype=float)
        if not self._witnesses:
            return (
                np.full(normals.shape[0], -np.inf),
                np.zeros(normals.shape[0], dtype=bool),
            )
        witnesses = np.vstack(list(self._witnesses.values()))
        values = (witnesses @ normals.T).max(axis=0)
        return values, values >= CERT_TOL

    def _certifies(self, halfspace: PreferenceHalfspace) -> bool:
        """Whether a witness proves ``R`` meets ``halfspace`` (no LP)."""
        return bool(self._certify(halfspace.normal[None, :])[1][0])

    def _add_witnesses(self, source: str, points: np.ndarray) -> None:
        """Keep the rows of ``points`` that lie in ``R`` (see the class).

        The check is :data:`~repro.geometry.lp.FEASIBILITY_TOL` on every
        row of the working set's LP system — ``u >= 0``,
        ``|sum(u) - 1|`` and ``u . n_h >= 0`` — far stricter than the
        post-solve check an LP optimiser passed, so a witness's
        soundness does not rest on the solver's tolerances.
        """
        tol = lp.FEASIBILITY_TOL
        valid = (points >= -tol).all(axis=1)
        valid &= np.abs(points.sum(axis=1) - 1.0) <= tol
        if self._halfspaces:
            normals = np.array([h.normal for h in self._halfspaces])
            valid &= (points @ normals.T >= -tol).all(axis=1)
        if valid.any():
            self._witnesses[source] = points[valid]
        else:
            self._witnesses.pop(source, None)

    # -- state ---------------------------------------------------------------

    _STATE_KIND = "ambient"

    def _body_state(self) -> dict[str, Any]:
        normals, winners, losers = halfspaces_to_arrays(
            self._halfspaces, self._dimension
        )
        # Probes no later bounds() call can reuse are not written.
        last = self._reusable_probes(self._halfspaces)
        return {
            "hs_normals": normals,
            "hs_winners": winners,
            "hs_losers": losers,
            "bounds_base": None if last is None else len(last.halfspaces),
            "bounds_values": None if last is None else last.values.copy(),
            "bounds_optimisers": (
                None if last is None else last.optimisers.copy()
            ),
        }

    def _restore_body(self, state: dict[str, Any]) -> None:
        self._halfspaces = list(
            halfspaces_from_arrays(
                state["hs_normals"], state["hs_winners"], state["hs_losers"]
            )
        )
        self._witnesses = {}
        # States written before the probes were kept carry none.
        base = state.get("bounds_base")
        self._bound_probes = None if base is None else _BoundProbes(
            tuple(self._halfspaces[:int(base)]),
            np.array(state["bounds_values"], dtype=float),
            np.array(state["bounds_optimisers"], dtype=float),
        )

    def __repr__(self) -> str:
        return (
            f"AmbientRange(d={self._dimension}, "
            f"answers={len(self._halfspaces)})"
        )


@dataclass(frozen=True)
class UpdatePreview:
    """One session's imminent range update, peeked before ``observe()``.

    Produced by :meth:`~repro.core.session.InteractiveAlgorithm.probe_preview`
    (every algorithm family derives its half-space from the answered
    question the same way, so the engines can peek it before the
    session's own update runs) and consumed in batches by
    :func:`prefetch_updates`.  ``bounds`` marks that the session will
    refresh its outer rectangle right after a successful update (AA and
    Adaptive always, SinglePass on its refresh schedule), making the
    ``2d`` bound probes worth prefetching too.
    """

    urange: UtilityRange
    halfspace: PreferenceHalfspace
    bounds: bool = False


def prefetch_updates(previews: Sequence[UpdatePreview]) -> None:
    """Batch the solver work of many sessions' imminent updates.

    Purely a cache/memo primer: each session's own ``update()`` replays
    the results bit-identically, and skipping this call entirely
    changes nothing but speed.

    * :class:`AmbientRange` previews — the trial-set feasibility probes
      of the whole tick stack into one
      :func:`~repro.geometry.lp.solve_many` call, then the
      outer-rectangle probes of every feasible trial marked ``bounds``
      stack into a second: exactly the probes the session's own
      :meth:`AmbientRange.bounds` call will solve, those whose last
      optimiser the answer cuts (all ``2d`` after a cap rotation or
      with no earlier call).  The mask comes from the same
      :meth:`AmbientRange._stale_probes` call on the same trial set,
      so the two agree bit for bit.  A preview whose answered side a
      witness point certifies (see :class:`AmbientRange`) submits no
      feasibility probe, exactly as its update will run none, but its
      bounds are still stacked.  Results land in the active
      :class:`~repro.geometry.lp.LPCache` (required — without one the
      results would be discarded, so these previews are skipped).
      Inner-sphere probes are deliberately *not* prefetched: their
      consumers read the optimiser ``x``, and a stacked solve may
      return a different-but-equally-optimal vertex, breaking
      bit-identity with the sequential path.  Feasibility (status-only)
      and bounds (value-only) probes are immune: the stacked optimum
      decomposes exactly per system.  Split-margin probes are not
      prefetched either, though only their values are read: their
      systems are unknown until the session has computed its own
      post-update inner sphere, whose centre ranks the candidate
      planes.  Each session stacks its own margins per round instead
      (:meth:`AmbientRange.split_margin`).
    * :class:`ExactRange` previews — the kept/cut classification and
      the edge-crossing kernel of every clip run in one NumPy pass
      (:func:`_pair_crossings`), stashed as a one-shot memo the
      range's next ``_apply`` consumes after an exact fingerprint
      check.
    """
    tracer = active_tracer()
    span = (
        NULL_SPAN
        if tracer is None
        else tracer.span("range.prefetch", batch=len(previews))
    )
    with span:
        ambient = [
            preview
            for preview in previews
            if isinstance(preview.urange, AmbientRange)
        ]
        if ambient and lp.active_cache() is not None:
            _prefetch_ambient(ambient)
        exact = [
            preview
            for preview in previews
            if isinstance(preview.urange, ExactRange)
        ]
        if exact:
            _prefetch_exact(exact)


def _prefetch_ambient(previews: Sequence[UpdatePreview]) -> None:
    """Stack the tick's uncertified feasibility probes, then feasible
    trials' bounds."""
    trials = []
    systems = []
    probed = []
    for preview in previews:
        urange = preview.urange
        assert isinstance(urange, AmbientRange)
        trial = urange.trial_halfspaces(preview.halfspace)
        trials.append(trial)
        # A witness-certified update runs no feasibility LP; probe the
        # rest.
        probed.append(not urange._certifies(preview.halfspace))
        if probed[-1]:
            systems.append(
                lp.ambient_feasibility_system(trial, urange.dimension)
            )
    outcomes = iter(lp.solve_many(systems, kind="ambient.feasible"))
    bound_systems: list[lp.LPSystem] = []
    for preview, trial, probe in zip(previews, trials, probed):
        urange = preview.urange
        assert isinstance(urange, AmbientRange)
        # An infeasible trial is dropped, and a bounds() call on the
        # unchanged set reuses all its probes; an unexpected LP failure
        # will re-raise inside the session's own update.  Either way,
        # no bounds to prefetch.
        feasible = isinstance(next(outcomes), lp.LPResult) if probe else True
        if preview.bounds and feasible:
            # Only the probes the session's own bounds() will solve.
            bound_systems.extend(
                lp.ambient_bounds_systems(
                    trial, urange.dimension, urange._stale_probes(trial)
                )
            )
    if bound_systems:
        lp.solve_many(bound_systems, kind="ambient.bounds")


def _prefetch_exact(previews: Sequence[UpdatePreview]) -> None:
    """One NumPy pass over the tick's clips; stash per-range memos."""
    staged: list[tuple[ExactRange, dict[str, Any], int, np.ndarray,
                       np.ndarray]] = []
    expanded: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for preview in previews:
        urange = preview.urange
        assert isinstance(urange, ExactRange)
        reduced = urange._reduced
        if reduced is None:
            # First access enumerates from scratch; nothing to clip yet.
            continue
        normal, offset = preview.halfspace.reduced()
        values = reduced @ normal - offset
        keep = values >= -_CLIP_TOL
        memo: dict[str, Any] = {
            "reduced": reduced,
            "normal": normal,
            "offset": offset,
            "values": values,
            "keep": keep,
            "has_face": False,
            "face": None,
        }
        if bool(keep.any()) and not bool(keep.all()):
            pairs = _expand_pairs(
                reduced[keep], reduced[~keep], values[keep], values[~keep]
            )
            staged.append(
                (urange, memo, pairs[0].shape[0], urange._a, urange._b)
            )
            expanded.append(pairs)
        else:
            # All-keep (redundant) or all-cut (suspected empty): the
            # classification alone is the reusable work.
            urange._clip_memo = memo
    if not staged:
        return
    crossings = _pair_crossings(
        np.concatenate([pairs[0] for pairs in expanded]),
        np.concatenate([pairs[1] for pairs in expanded]),
        np.concatenate([pairs[2] for pairs in expanded]),
        np.concatenate([pairs[3] for pairs in expanded]),
    )
    start = 0
    for urange, memo, count, a_rows, b_rows in staged:
        face = _face_from_candidates(
            crossings[start:start + count],
            memo["reduced"].shape[1],
            a_rows, b_rows,
        )
        start += count
        memo["has_face"] = True
        memo["face"] = face
        urange._clip_memo = memo


def halfspaces_to_arrays(
    halfspaces: Sequence[PreferenceHalfspace], dimension: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack half-spaces into ``(normals (k, d), winners (k,), losers (k,))``.

    The array triple is the snapshot representation used by
    :mod:`repro.persist`; :func:`halfspaces_from_arrays` inverts it
    exactly (the unit normal cached on each half-space is derived, so
    only the raw normal travels).
    """
    if not halfspaces:
        return (
            np.empty((0, dimension), dtype=float),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    normals = np.array([h.normal for h in halfspaces], dtype=float)
    winners = np.array([h.winner_index for h in halfspaces], dtype=np.int64)
    losers = np.array([h.loser_index for h in halfspaces], dtype=np.int64)
    return normals, winners, losers


def halfspaces_from_arrays(
    normals: np.ndarray, winners: np.ndarray, losers: np.ndarray
) -> tuple[PreferenceHalfspace, ...]:
    """Rebuild the half-space tuple packed by :func:`halfspaces_to_arrays`."""
    normals = np.asarray(normals, dtype=float)
    return tuple(
        PreferenceHalfspace(
            normals[k].copy(),
            winner_index=int(winners[k]),
            loser_index=int(losers[k]),
        )
        for k in range(normals.shape[0])
    )


def _with_row(
    a_rows: np.ndarray, b_rows: np.ndarray, halfspace: PreferenceHalfspace
) -> tuple[np.ndarray, np.ndarray]:
    """``A x <= b`` with ``halfspace``'s reduced row appended."""
    normal, offset = halfspace.reduced()
    # a . x >= b  ->  (-a) . x <= -b
    return np.vstack([a_rows, -normal[None, :]]), np.append(b_rows, -offset)


def _chebyshev_lp(
    a_rows: np.ndarray, b_rows: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """Reduced Chebyshev centre and radius of ``A x <= b``, ``None`` if
    the system is empty."""
    try:
        return lp.chebyshev_center(a_rows, b_rows)
    except lp.InfeasibleLP:
        return None


def _prune(
    a_rows: np.ndarray, b_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``A x <= b`` without its redundant rows (one LP per row tested).

    Keeping the H-system minimal keeps every later LP, Qhull call and
    hit-and-run step cheap as the interaction accumulates answers.
    """
    keep = np.ones(a_rows.shape[0], dtype=bool)
    for i in range(a_rows.shape[0]):
        if int(keep.sum()) <= a_rows.shape[1] + 1:
            break
        selected = np.flatnonzero(keep)
        position = int(np.searchsorted(selected, i))
        if lp.constraint_is_redundant(
            a_rows[keep], b_rows[keep], index=position
        ):
            keep[i] = False
    return a_rows[keep], b_rows[keep]


def _raw_vertices(
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    center: tuple[np.ndarray, float] | None,
) -> np.ndarray:
    """From-scratch reduced vertices of ``A x <= b``, unrounded.

    ``center`` is the system's Chebyshev LP (``None``: empty).  One
    representative per rounded-dedup class, ordered by its rounded key
    (see :func:`_unique_raw`).  A 1-d system is an interval; otherwise
    Qhull's half-space intersection runs when the body has a positive
    Chebyshev radius, and the combinatorial enumeration when Qhull
    cannot (flat ranges, Qhull failure).  The property tests cross-check
    the two paths.

    Raises
    ------
    EmptyRegionError
        If the system is empty.
    VertexEnumerationError
        If no vertex is found, or the combinatorial fallback is too
        large.
    """
    if center is None:
        raise EmptyRegionError("utility range is empty")
    if a_rows.shape[1] == 1:
        reduced = _interval_vertices(a_rows, b_rows)
    else:
        qhull = _qhull_vertices(a_rows, b_rows, center)
        reduced = (
            _combinatorial_vertices(a_rows, b_rows, center)
            if qhull is None else qhull
        )
    if reduced.shape[0] == 0:
        raise VertexEnumerationError("no vertices found for polytope")
    return _unique_raw(reduced)


def _interval_vertices(a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    """1-d special case: the range is an interval."""
    lower, upper = -np.inf, np.inf
    for coeff, bound in zip(a_rows[:, 0], b_rows):
        if coeff > 0:
            upper = min(upper, bound / coeff)
        elif coeff < 0:
            lower = max(lower, bound / coeff)
        elif bound < 0:
            raise EmptyRegionError("utility range is empty")
    if lower > upper + 1e-12:
        raise EmptyRegionError("utility range is empty")
    return np.array([[lower], [upper]])


def _qhull_vertices(
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    center: tuple[np.ndarray, float],
) -> np.ndarray | None:
    """Qhull half-space intersection; ``None`` if unusable here."""
    if center[1] < _QHULL_MIN_RADIUS:
        return None
    # Qhull expects rows (a_i, -b_i) meaning a_i . x - b_i <= 0.
    system = np.hstack([a_rows, -b_rows[:, None]])
    try:
        intersection = HalfspaceIntersection(system, center[0])
    except (QhullError, ValueError):
        return None
    points = intersection.intersections
    points = points[np.all(np.isfinite(points), axis=1)]
    if points.shape[0] == 0:
        return None
    return points


def _combinatorial_vertices(
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    center: tuple[np.ndarray, float],
) -> np.ndarray:
    """Exact fallback: intersect every ``k``-subset of facet planes."""
    a, b = _prune(a_rows, b_rows)
    m, k = a.shape
    n_combos = math.comb(m, k)
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
        # A flat range may be a single point defined by > k planes in
        # near-degenerate position; use the Chebyshev centre.
        found.append(center[0])
    return np.array(found)


def _unique_raw(points: np.ndarray) -> np.ndarray:
    """One unrounded representative per rounded-dedup class, key-sorted.

    Mirrors the ``round``/``unique`` dedup of :meth:`ExactRange.vertices`
    while preserving the unrounded coordinates, so repeated clipping does
    not accumulate grid error.
    """
    rounded = np.round(points, _DEDUP_DECIMALS)
    _, index = np.unique(rounded, axis=0, return_index=True)
    return points[index]


def _expand_pairs(
    kept: np.ndarray,
    cut: np.ndarray,
    kept_values: np.ndarray,
    cut_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expand the kept x cut product to one row per (kept, cut) pair.

    Row order is kept-major (``(i, j) -> i * n_cut + j``), matching the
    row-major reshape of the broadcast form this replaced.
    """
    n_kept, n_cut = kept.shape[0], cut.shape[0]
    return (
        np.repeat(kept, n_cut, axis=0),
        np.tile(cut, (n_kept, 1)),
        np.repeat(kept_values, n_cut),
        np.tile(cut_values, n_kept),
    )


def _pair_crossings(
    kept_rows: np.ndarray,
    cut_rows: np.ndarray,
    kept_values: np.ndarray,
    cut_values: np.ndarray,
) -> np.ndarray:
    """Plane crossing of each (kept, cut) vertex pair, one row per pair.

    The computation is purely elementwise, which is what makes batching
    across sessions safe: concatenating many clips' expanded pairs into
    one call and slicing the rows back apart produces bit-identical
    crossings to per-clip calls, because every output element is the
    same scalar expression of the same scalar inputs regardless of how
    the rows are grouped.  :func:`prefetch_updates` relies on this.
    """
    t = kept_values / (kept_values - cut_values)
    return kept_rows * (1.0 - t[:, None]) + cut_rows * t[:, None]


def _face_from_candidates(
    crossings: np.ndarray,
    dim: int,
    a_rows: np.ndarray,
    b_rows: np.ndarray,
) -> np.ndarray | None:
    """Prune crossing candidates down to the cut face's vertices."""
    candidates = _unique_raw(crossings)
    if dim > 1:
        tight = np.abs(candidates @ a_rows.T - b_rows[None, :]) <= _TIGHT_TOL
        candidates = candidates[tight.sum(axis=1) >= dim - 1]
        if candidates.shape[0] == 0:
            return None
    return _extreme_points(candidates)


def _clip_face(
    kept: np.ndarray,
    cut: np.ndarray,
    kept_values: np.ndarray,
    cut_values: np.ndarray,
    a_rows: np.ndarray,
    b_rows: np.ndarray,
) -> np.ndarray | None:
    """Vertices of the cut face ``conv(V) ∩ plane``, or ``None`` if unclear.

    Every kept–cut segment crosses the plane inside the body (convexity),
    and every genuine cut-face vertex lies on a polytope edge between a
    kept and a cut vertex — so intersecting *all* kept–cut segments with
    the plane yields a superset of the face's vertices.  Two pruning
    passes recover exactly the face: an edge test (a true crossing has
    ``>= dim-1`` existing facets tight, a non-adjacent pair's crossing
    falls in the face's interior and does not) and an extreme-point
    extraction discarding whatever interior candidates remain.

    The crossing computation is the shared :func:`_pair_crossings`
    kernel — the same code path :func:`prefetch_updates` batches across
    a whole tick — so a prefetched clip is bit-identical to an inline
    one by construction.
    """
    crossings = _pair_crossings(
        *_expand_pairs(kept, cut, kept_values, cut_values)
    )
    return _face_from_candidates(crossings, kept.shape[1], a_rows, b_rows)


def _extreme_points(points: np.ndarray) -> np.ndarray | None:
    """Extreme points of a point set lying on an affine flat.

    Projects onto the flat's principal directions (SVD) so flats of any
    dimension — cut faces, edges, single points — are handled uniformly.
    Returns ``None`` when Qhull cannot certify the hull (degenerate
    spans); callers fall back to a full enumeration.
    """
    if points.shape[0] <= 2:
        return points
    centered = points - points.mean(axis=0)
    _, singular, directions = np.linalg.svd(centered, full_matrices=False)
    span = directions[singular > _RANK_TOL]
    rank = span.shape[0]
    if rank == 0:
        return points[:1]
    coordinates = centered @ span.T
    if rank == 1:
        line = coordinates[:, 0]
        ends = np.unique([int(np.argmin(line)), int(np.argmax(line))])
        return points[ends]
    try:
        hull = ConvexHull(coordinates)
    except QhullError:
        return None
    return points[np.sort(hull.vertices)]


__all__ = [
    "PRUNE_ABOVE",
    "RangeStats",
    "UtilityRange",
    "ExactRange",
    "AmbientRange",
    "UpdatePreview",
    "prefetch_updates",
    "halfspaces_to_arrays",
    "halfspaces_from_arrays",
]
