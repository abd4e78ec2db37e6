"""Typed linear-programming helpers over scipy's bundled HiGHS solver.

Two families of helpers live here:

* *Reduced-space* LPs over H-polytopes ``{x : A x <= b}`` used by
  :class:`repro.geometry.polytope.UtilityPolytope` (Chebyshev centre,
  feasibility, support functions, redundancy tests).
* *Ambient-space* LPs over a list of
  :class:`~repro.geometry.hyperplane.PreferenceHalfspace` plus the simplex
  equality ``sum(u) = 1`` used by algorithm AA, which never materialises
  the polytope (Section IV-C): inner sphere, outer rectangle, and the
  stacked split-margin checks for candidate questions.

All solves go through :func:`solve`, which normalises HiGHS statuses into
the package exception hierarchy.

The solver call: :func:`_highs_solve` hands HiGHS
(``scipy.optimize._highspy._core``) the same model, with the same
options, that ``scipy.optimize.linprog(method="highs")`` builds, on a
fresh solver instance, and keeps ``linprog``'s status mapping and
post-solve feasibility check.  Solutions are byte-equal to ``linprog``'s
(``tests/geometry/test_lp.py`` compares them), without ``linprog``'s
per-call Python overhead: one raw solve of a mid-session Chebyshev LP
costs about 0.85 ms instead of 2.3-2.8 ms on a 2-vCPU host.

Memoisation: identical constraint systems recur heavily when many
interactive sessions run over one dataset (every fresh session starts
from the same simplex, and popular questions re-derive the same
feasibility and inner-sphere LPs).  :class:`LPCache` memoises solves
keyed on a canonical hash of the full constraint system; installing one
with :func:`use_cache` routes every :func:`solve` inside the ``with``
block through it.  Cache hits return the *exact* result of the original
solve (failures included), so caching never perturbs downstream
decisions — it only skips redundant solver work.

Backends: the actual solver behind :func:`solve` is an injectable
:class:`LPBackend`.  The default is :class:`ScipyHighsBackend`
(:func:`_highs_solve`); :func:`use_backend`
installs an alternative for a ``with`` block, and range objects in
:mod:`repro.geometry.range` accept a per-instance backend.  The seam
composes with :class:`LPCache`: the cache sits *in front* of the backend
(hits never reach it), and cache keys are tagged with the backend's
``name`` so two backends never serve each other's results.

Observability: when a :class:`~repro.obs.tracer.Tracer` is installed
(:func:`repro.obs.use_tracer`), every :func:`solve` records a span named
``lp.solve/<kind>/<hit|miss|uncached>`` — ``kind`` identifies the LP
family (``chebyshev``, ``ambient.sphere``, ...; callers pass it via the
``kind`` keyword, which never affects cache keys) and the final
component records whether the cache answered.  With no tracer installed
the only cost is one ``ContextVar`` read per solve.

Batching: :func:`solve_many` solves a list of :class:`LPSystem` in one
call.  Cache hits are peeled off individually first; the remaining
misses are stacked into block-diagonal HiGHS calls when the active
backend supports it (:class:`BatchLPBackend`, the default) and stored
back individually, so later per-system :func:`solve` calls replay them
as ordinary hits.  Stacking amortises the per-solve model set-up that
rivals the simplex work on these tiny systems (each one is a handful of
rows); see ``benchmarks/bench_micro_geometry.py``.
"""

from __future__ import annotations

import abc
import hashlib
import threading
from collections import OrderedDict
from collections.abc import Iterator, Sequence
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np
from scipy.optimize._highspy import _core as _highs

from repro.errors import EmptyRegionError, LPError
from repro.geometry.hyperplane import PreferenceHalfspace
from repro.obs.tracer import active_tracer

#: Feasibility slack used when interpreting LP optima as strict inequalities.
FEASIBILITY_TOL = 1e-9

_FREE = (None, None)


@dataclass(frozen=True)
class LPResult:
    """Outcome of a successful LP solve."""

    x: np.ndarray
    value: float


class InfeasibleLP(LPError):
    """The LP constraint set is empty."""


class UnboundedLP(LPError):
    """The LP objective is unbounded over the constraint set."""


def _array_bytes(array: np.ndarray | None) -> bytes:
    """Shape-prefixed raw bytes of ``array`` (``-`` for absent blocks)."""
    if array is None:
        return b"-"
    contiguous = np.ascontiguousarray(np.asarray(array, dtype=float))
    return repr(contiguous.shape).encode() + contiguous.tobytes()


def _is_scalar_pair(bounds: Sequence | tuple) -> bool:
    """Whether ``bounds`` is one shared ``(lo, hi)`` pair, not a sequence."""
    if len(bounds) != 2:
        return False
    return all(
        item is None or np.ndim(item) == 0 for item in bounds
    )


def expand_bounds(
    bounds: Sequence[tuple[float | None, float | None]] | tuple | None,
    n: int,
) -> list[tuple[float | None, float | None]]:
    """Normalise a ``linprog`` bounds spec to one ``(lo, hi)`` pair per var.

    Mirrors ``linprog``'s own interpretation: ``None`` means the solver
    default ``(0, None)``, a single scalar pair is shared by all ``n``
    variables, and anything else is taken as a per-variable sequence.
    Scalar elements are coerced with ``float`` so numpy scalars and
    Python floats normalise identically.
    """
    if bounds is None:
        pairs: list = [(0.0, None)] * n
    elif _is_scalar_pair(bounds):
        pairs = [tuple(bounds)] * n
    else:
        pairs = [tuple(pair) for pair in bounds]
    return [
        (
            None if lo is None else float(lo),
            None if hi is None else float(hi),
        )
        for lo, hi in pairs
    ]


def _bounds_array(
    bounds: Sequence[tuple[float | None, float | None]] | tuple | None,
    n: int,
) -> np.ndarray:
    """:func:`expand_bounds` as a ``(pairs, 2)`` float64 array, ``±inf``
    standing in for ``None``."""
    pairs = expand_bounds(bounds, n)
    array = np.empty((len(pairs), 2), dtype=np.float64)
    for row, (lo, hi) in enumerate(pairs):
        array[row, 0] = -np.inf if lo is None else lo
        array[row, 1] = np.inf if hi is None else hi
    return array


def _bounds_bytes(
    bounds: Sequence[tuple[float | None, float | None]] | tuple | None,
    n: int,
) -> bytes:
    """Canonical byte form of a ``linprog`` bounds specification.

    Bounds are expanded to an ``(n, 2)`` float64 array with ``±inf``
    standing in for ``None``, then hashed by raw bytes — so a shared
    scalar pair and its expanded per-variable form, ``np.float64`` and
    Python floats, and list vs tuple containers all key identically.
    """
    array = _bounds_array(bounds, n)
    return repr(array.shape).encode() + array.tobytes()


def constraint_system_key(
    c: np.ndarray,
    a_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    bounds: Sequence[tuple[float | None, float | None]] | tuple | None = _FREE,
    tag: bytes = b"",
) -> bytes:
    """Canonical hash of an LP: objective, constraint blocks and bounds.

    Two calls produce the same key iff every array is byte-for-byte equal
    (same shapes, same floats) and ``tag`` matches, so a cache hit is
    guaranteed to stand in for an actual re-solve of the *identical*
    system by the *same* backend (``tag`` carries the backend name).
    Bounds are canonicalised numerically before hashing (see
    :func:`expand_bounds`): container type, numpy-vs-Python scalars and
    scalar-pair-vs-expanded spellings of the same bounds all produce the
    same key.
    """
    digest = hashlib.sha256()
    c = np.asarray(c, dtype=float)
    digest.update(_array_bytes(c))
    for block in (a_ub, b_ub, a_eq, b_eq):
        digest.update(b"|")
        digest.update(_array_bytes(block))
    digest.update(b"|")
    digest.update(_bounds_bytes(bounds, int(c.shape[-1])))
    digest.update(b"|")
    digest.update(tag)
    return digest.digest()


@dataclass(frozen=True)
class LPSystem:
    """One ``min c . x`` system in :func:`solve`'s conventions.

    The value object :func:`solve_many` consumes.  ``bounds`` defaults
    to *free* variables, exactly like :func:`solve` (and unlike raw
    ``linprog``, which defaults to ``x >= 0``).
    """

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    bounds: Sequence[tuple[float | None, float | None]] | tuple | None = _FREE

    def key(self, tag: bytes = b"") -> bytes:
        """This system's :func:`constraint_system_key` under ``tag``."""
        return constraint_system_key(
            self.c, self.a_ub, self.b_ub, self.a_eq, self.b_eq,
            self.bounds, tag=tag,
        )

    @property
    def size(self) -> int:
        """Number of variables."""
        return int(np.asarray(self.c).shape[-1])


class LPCache:
    """Memoises LP solves keyed on :func:`constraint_system_key`.

    Entries store either the successful :class:`LPResult` or the exception
    class + message of a failed solve, so infeasibility checks are cached
    as effectively as optimisations.  Counters expose the solver work
    saved: ``solves`` is the total number of :func:`solve` calls routed
    through the cache, split into ``hits`` and ``misses``.

    The cache has no invalidation protocol: keys bind the *entire*
    constraint system, so a stored result can never go stale.  Bound the
    footprint with ``max_entries``; eviction is least-recently-*used*
    (a hit refreshes an entry's recency), so the hot simplex-startup
    systems every fresh session re-derives stay resident under
    sustained load instead of being the first insertions evicted.

    Thread safety: :meth:`lookup` and :meth:`store` — the two operations
    :func:`solve` uses — take an internal lock, so one cache can be
    shared by the LP worker threads of
    :class:`~repro.serve.scheduler.ContinuousEngine` (the ContextVar
    installation is *copied* to each worker task, all pointing at this
    one object).  Two threads racing the same uncached system may both
    miss and both solve — a small duplicated effort, never a wrong
    answer, because entries are immutable once derived from the keyed
    system.
    """

    def __init__(self, max_entries: int = 100_000) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._store: OrderedDict[
            bytes, LPResult | tuple[type[LPError], str]
        ] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def solves(self) -> int:
        """Total solve() calls routed through this cache."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of routed solves answered from the cache."""
        total = self.solves
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    # -- the solve() protocol ------------------------------------------------

    def lookup(
        self, key: bytes
    ) -> LPResult | tuple[type[LPError], str] | None:
        """Atomically probe ``key``, counting the hit or miss.

        Returns the stored entry — an :class:`LPResult` *copy* (callers
        may mutate ``x``) or a ``(error_type, message)`` failure pair —
        or ``None`` on a miss.  A hit counts as a *use*: the entry moves
        to the recent end of the LRU order, so frequently replayed
        systems survive eviction.
        """
        with self._lock:
            entry = self._store.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._store.move_to_end(key)
            if isinstance(entry, LPResult):
                return LPResult(x=entry.x.copy(), value=entry.value)
            return entry

    def store(
        self, key: bytes, entry: LPResult | tuple[type[LPError], str]
    ) -> None:
        """Atomically record ``entry`` under ``key``, evicting LRU-first."""
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
            elif len(self._store) >= self.max_entries:
                self._store.popitem(last=False)
            self._store[key] = entry

    @staticmethod
    def replay(entry: LPResult | tuple[type[LPError], str]) -> LPResult:
        """Re-enact a stored entry: return the result or re-raise the error."""
        if isinstance(entry, LPResult):
            return entry
        error_type, message = entry
        raise error_type(message)


#: The installed cache is context-local, not a module global: two engines
#: running on different threads (or asyncio tasks) each see only their own
#: installation, and exiting one ``use_cache`` block can never restore a
#: cache that a concurrent thread installed.
_active_cache: ContextVar[LPCache | None] = ContextVar(
    "repro_lp_active_cache", default=None
)


def active_cache() -> LPCache | None:
    """The cache currently installed by :func:`use_cache`, if any."""
    return _active_cache.get()


@contextmanager
def use_cache(cache: LPCache) -> Iterator[LPCache]:
    """Route every :func:`solve` inside the block through ``cache``.

    Nesting is allowed; the innermost cache wins and the previous one is
    restored on exit.  Installation is *context-local* (``contextvars``):
    the engine and every algorithm it drives share the cache, while
    concurrent engines on other threads or tasks are unaffected — each
    context's ``finally`` restores its own previous cache.
    """
    token = _active_cache.set(cache)
    try:
        yield cache
    finally:
        _active_cache.reset(token)


class LPBackend(abc.ABC):
    """One injectable LP solver implementation behind :func:`solve`.

    Subclasses implement :meth:`solve_raw` — one uncached solve of the
    given system, raising the package exception hierarchy on failure.
    The ``solves`` counter records raw solver invocations (cache hits
    never reach the backend), so ``cache.hits`` over a run is exactly
    the solver work the backend was spared.  Increments go through
    :meth:`count_solves`, which takes an internal lock, so the counter
    stays exact even when one backend is shared by the worker threads of
    :class:`~repro.serve.scheduler.ContinuousEngine` (``workers > 0``).

    ``name`` must be unique per backend implementation: it is mixed into
    :func:`constraint_system_key`, so results produced by one backend are
    never replayed as another backend's answer.  (The one sanctioned
    exception is :class:`BatchLPBackend`, which shares
    :class:`ScipyHighsBackend`'s name because it *is* the same solver —
    see its docstring.)
    """

    #: Unique identifier mixed into cache keys.
    name: str = "abstract"

    def __init__(self) -> None:
        self.solves = 0
        self._solves_lock = threading.Lock()

    def count_solves(self, n: int = 1) -> None:
        """Record ``n`` raw solver invocations (thread-safe)."""
        with self._solves_lock:
            self.solves += n

    @abc.abstractmethod
    def solve_raw(
        self,
        c: np.ndarray,
        a_ub: np.ndarray | None,
        b_ub: np.ndarray | None,
        a_eq: np.ndarray | None,
        b_eq: np.ndarray | None,
        bounds: Sequence[tuple[float | None, float | None]] | tuple | None,
    ) -> LPResult:
        """Solve ``min c . x`` over the system; raise ``LPError`` kinds."""


def _default_highs_options() -> Any:
    """The HiGHS options ``linprog(method="highs")`` sets by default.

    Exactly the non-``None`` entries of the option dict scipy's HiGHS
    wrapper builds: presolve on, the dual simplex strategy, no output,
    no debug checks.  Every other option keeps its HiGHS default there
    as here.
    """
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = (
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    )
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    return options


#: Built once at import and only read afterwards: ``passOptions`` copies
#: it into each solver instance, so engine worker threads and forked
#: workers can share it.
_HIGHS_OPTIONS = _default_highs_options()

#: ``linprog``'s post-solve feasibility tolerance, ``sqrt(tol) * 10`` at
#: its default ``tol = 1e-9``.
_CHECK_TOL = float(np.sqrt(1e-9) * 10)


def _highs_inf(values: np.ndarray) -> np.ndarray:
    """``values`` with ``±inf`` replaced by ``±kHighsInf``."""
    return np.where(
        np.isinf(values), np.copysign(_highs.kHighsInf, values), values
    )


class _Block(NamedTuple):
    """One system's constraints, ready to stack.

    The matrix ``[A_ub; A_eq]`` is in CSC form: ``counts`` nonzeros per
    column, then each nonzero's local row and value, column by column
    with rows ascending and zeros dropped (what ``csc_array`` stores).
    """

    b_ub: np.ndarray
    b_eq: np.ndarray
    #: ``(n, 2)``, ``±inf`` for missing sides.
    bounds: np.ndarray
    counts: np.ndarray
    rows: np.ndarray
    values: np.ndarray


def _csc_block(system: LPSystem, n: int) -> _Block:
    """``system``'s constraints as a :class:`_Block`.

    Absent constraint families have no rows.  Shapes are checked the way
    ``linprog`` checks them, with the same exception type.
    """
    matrices: list[np.ndarray] = []
    rhs: list[np.ndarray] = []
    for a, b, family in (
        (system.a_ub, system.b_ub, "ub"), (system.a_eq, system.b_eq, "eq"),
    ):
        if a is None:
            matrices.append(np.zeros((0, n)))
            rhs.append(np.zeros(0))
            continue
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float).ravel()
        if a.ndim != 2 or a.shape != (b.size, n):
            raise ValueError(
                f"A_{family} must be {b.size} x {n}, got shape {a.shape}"
            )
        matrices.append(a)
        rhs.append(b)
    bounds = _bounds_array(system.bounds, n)
    if bounds.shape != (n, 2):
        raise ValueError(f"bounds must give {n} (lo, hi) pairs")
    # Transposed, so boolean indexing walks column by column with row
    # indices ascending: the CSC order.
    columns = np.vstack(matrices).T
    nonzero = columns != 0
    return _Block(
        rhs[0], rhs[1], bounds, nonzero.sum(axis=1),
        np.nonzero(nonzero)[1], columns[nonzero],
    )


def _highs_solve(systems: Sequence[LPSystem]) -> np.ndarray:
    """Solve the block-diagonal stack of ``systems`` in one HiGHS run.

    HiGHS gets the model and options ``linprog(method="highs")`` builds
    for the same input, so the returned ``x`` is byte-equal to
    ``linprog``'s (the tests compare the two directly):

    * rows ``[A_ub; A_eq]`` with ``lhs = [-inf; b_eq]`` and
      ``rhs = [b_ub; b_eq]``; for a stack, every system's ``A_ub`` rows
      come first, then every ``A_eq`` row, as ``linprog`` over
      ``scipy.sparse.block_diag`` of each family orders them;
    * the matrix in CSC form with zeros dropped and row indices
      ascending within each column, as ``csc_array`` stores it;
    * column bounds from :func:`expand_bounds`, ``±inf`` mapped to
      ``±kHighsInf``;
    * :data:`_HIGHS_OPTIONS`, on a fresh solver instance per call, so
      no basis or solution state carries from one solve to the next.

    Statuses map as ``linprog`` maps them, and an optimal solution
    passes ``linprog``'s post-check before it is returned: no NaNs, ``x``
    within its bounds and every row within ``_CHECK_TOL``.

    Raises
    ------
    InfeasibleLP
        HiGHS proved the stack infeasible or rejected the model.
    UnboundedLP
        HiGHS proved the stack unbounded.
    LPError
        Any other HiGHS status, or an optimum that fails the post-check.
    ValueError
        Malformed or non-finite input.
    """
    costs: list[np.ndarray] = []
    blocks: list[_Block] = []
    for system in systems:
        c = np.asarray(system.c, dtype=float).ravel()
        costs.append(c)
        blocks.append(_csc_block(system, c.size))
    n_ub = sum(block.b_ub.size for block in blocks)
    ub_row, eq_row = 0, n_ub
    index: list[np.ndarray] = []
    for block in blocks:
        m_ub = block.b_ub.size
        index.append(
            block.rows + np.where(block.rows < m_ub, ub_row, eq_row - m_ub)
        )
        ub_row += m_ub
        eq_row += block.b_eq.size
    c = np.concatenate(costs)
    b_eq = np.concatenate([block.b_eq for block in blocks])
    rhs = np.concatenate([block.b_ub for block in blocks] + [b_eq])
    bounds = np.concatenate([block.bounds for block in blocks])
    start = np.zeros(c.size + 1, dtype=np.int32)
    counts = np.concatenate([block.counts for block in blocks])
    np.cumsum(counts, out=start[1:])
    values = np.concatenate([block.values for block in blocks])
    # The stored nonzeros carry every non-finite entry of the matrices.
    if not (
        np.isfinite(c).all()
        and np.isfinite(rhs).all()
        and np.isfinite(values).all()
    ):
        raise ValueError("LP data must not contain inf or nan")

    model = _highs.HighsLp()
    model.num_col_ = c.size
    model.num_row_ = rhs.size
    model.a_matrix_.num_col_ = c.size
    model.a_matrix_.num_row_ = rhs.size
    model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    model.col_cost_ = c
    model.col_lower_ = _highs_inf(bounds[:, 0])
    model.col_upper_ = _highs_inf(bounds[:, 1])
    model.row_lower_ = _highs_inf(
        np.concatenate((np.full(n_ub, -np.inf), b_eq))
    )
    model.row_upper_ = rhs
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = np.concatenate(index).astype(np.int32)
    model.a_matrix_.value_ = values

    highs = _highs._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    if highs.passModel(model) == _highs.HighsStatus.kError:
        status = _highs.HighsModelStatus.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        if status in (
            _highs.HighsModelStatus.kInfeasible,
            _highs.HighsModelStatus.kModelError,
        ):
            raise InfeasibleLP("LP constraint set is empty")
        if status == _highs.HighsModelStatus.kUnbounded:
            raise UnboundedLP("LP objective is unbounded")
        name = highs.modelStatusToString(status)
        raise LPError(f"LP solve failed: HiGHS status {name}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    slack = rhs - np.array(solution.row_value)
    tol = _CHECK_TOL
    if (
        np.isnan(x).any()
        or np.isnan(highs.getObjectiveValue())
        or np.isnan(slack).any()
        or (x < bounds[:, 0] - tol).any()
        or (x > bounds[:, 1] + tol).any()
        or (slack[:n_ub] < -tol).any()
        or (np.abs(slack[n_ub:]) > tol).any()
    ):
        raise LPError(
            f"LP solution violates its constraints beyond {tol:.2e}"
        )
    return x


class ScipyHighsBackend(LPBackend):
    """The default backend: scipy's bundled HiGHS, called directly.

    :func:`_highs_solve` passes HiGHS the same model, with the same
    options and post-checks, that ``scipy.optimize.linprog(method=
    "highs")`` would, so its solutions are byte-equal to ``linprog``'s
    and cache entries stay interchangeable with ones ``linprog``
    produced; the ``name`` is unchanged for that reason.  Skipping
    ``linprog``'s Python wrapper cuts one raw Chebyshev solve from
    2.3-2.8 ms to about 0.85 ms (``benchmarks/bench_micro_geometry.py``).
    """

    name = "scipy-highs"

    def solve_raw(
        self,
        c: np.ndarray,
        a_ub: np.ndarray | None,
        b_ub: np.ndarray | None,
        a_eq: np.ndarray | None,
        b_eq: np.ndarray | None,
        bounds: Sequence[tuple[float | None, float | None]] | tuple | None,
    ) -> LPResult:
        """One raw HiGHS solve with statuses normalised to exceptions."""
        c = np.asarray(c, dtype=float)
        x = _highs_solve([LPSystem(c, a_ub, b_ub, a_eq, b_eq, bounds)])
        # The objective is recomputed as c.x rather than read from HiGHS:
        # its reported objective can differ from c.x in the last ulp, and
        # solve_many() can only recover per-system values from the
        # stacked solution as c_i.x_i.  Computing both paths' values with
        # the same expression keeps batched and sequential solves
        # bit-identical whenever their optima agree.
        return LPResult(x=x, value=float(np.dot(c, x)))


class BatchLPBackend(ScipyHighsBackend):
    """HiGHS backend that can additionally solve many systems in one call.

    :meth:`solve_many_raw` stacks up to ``max_batch`` systems into one
    block-diagonal HiGHS solve: the systems share no variables, so
    the stacked optimum decomposes exactly into per-system optima.
    Per-system solutions are sliced back out and per-system objectives
    recovered as ``c_i . x_i`` — the same expression
    :meth:`ScipyHighsBackend.solve_raw` uses, so a batched solve of a
    system and a sequential solve of the same system produce the same
    value whenever their optima agree.  The win is amortisation: each
    of these systems is a handful of rows, and the per-solve model
    set-up rivals the actual simplex work.

    A single failing member poisons the whole stack (HiGHS reports one
    status for the stacked problem, with no per-block attribution), so
    a failed stack is bisected until the failing members are isolated
    as singletons and solved through :meth:`solve_raw`, giving every
    member its own exception from the package hierarchy.

    This subclass deliberately keeps ``scipy-highs`` as its cache-key
    ``name`` — the one sanctioned exception to the unique-name rule:
    single-system solves are inherited unchanged, and stacked solves
    run the identical solver over the identical systems, so its results
    are interchangeable with :class:`ScipyHighsBackend`'s.  That is
    what lets the engines prime a shared cache with batched results
    that per-session :func:`solve` calls then replay as hits.
    """

    def __init__(self, max_batch: int = 256) -> None:
        super().__init__()
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = int(max_batch)

    def solve_many_raw(
        self, systems: Sequence[LPSystem]
    ) -> list[LPResult | LPError]:
        """Solve every system, stacked; outcomes in input order."""
        systems = list(systems)
        outcomes: list[LPResult | LPError] = []
        for start in range(0, len(systems), self.max_batch):
            outcomes.extend(
                self._solve_stack(systems[start:start + self.max_batch])
            )
        return outcomes

    def _solve_stack(
        self, systems: list[LPSystem]
    ) -> list[LPResult | LPError]:
        if not systems:
            return []
        if len(systems) == 1:
            system = systems[0]
            self.count_solves()
            try:
                return [
                    self.solve_raw(
                        system.c, system.a_ub, system.b_ub,
                        system.a_eq, system.b_eq, system.bounds,
                    )
                ]
            except LPError as error:
                return [error]
        self.count_solves()
        try:
            x = _highs_solve(systems)
        except LPError:
            # At least one member is infeasible or unbounded (or HiGHS
            # hit a limit); bisect to isolate which.
            mid = len(systems) // 2
            return (
                self._solve_stack(systems[:mid])
                + self._solve_stack(systems[mid:])
            )
        outcomes: list[LPResult | LPError] = []
        offset = 0
        for system in systems:
            n = system.size
            xi = x[offset:offset + n].copy()
            ci = np.asarray(system.c, dtype=float)
            outcomes.append(LPResult(x=xi, value=float(np.dot(ci, xi))))
            offset += n
        return outcomes


#: Per-pool-process batching backend, built lazily on first chunk.  One
#: instance per solver process, reused across chunks (every solve still
#: gets a fresh HiGHS instance).
_POOL_WORKER_BACKEND: BatchLPBackend | None = None


def _pool_solve_chunk(
    systems: list[LPSystem],
) -> tuple[list[LPResult | LPError], int]:
    """Solve one chunk in a pool process; returns (outcomes, raw solves).

    Module-level so a ``spawn``-context pool can import it by name; the
    raw-solve count travels back so the parent backend's ``solves``
    counter stays exact across the process boundary.
    """
    global _POOL_WORKER_BACKEND
    backend = _POOL_WORKER_BACKEND
    if backend is None:
        backend = _POOL_WORKER_BACKEND = BatchLPBackend()
    before = backend.solves
    return backend.solve_many_raw(systems), backend.solves - before


class ProcessPoolLPBackend(BatchLPBackend):
    """Batched HiGHS backend that fans large stacks to a process pool.

    ``solve_many_raw`` splits the miss set into up to ``procs``
    contiguous chunks and solves them in parallel solver processes,
    sidestepping the GIL that serialises
    :class:`~repro.serve.scheduler.ContinuousEngine` tick work and LP
    solving in one process (ROADMAP item 1a).  Each pool process runs a
    plain :class:`BatchLPBackend` over its chunk, so per-system values
    are bit-identical to in-process batching — the ``name`` therefore
    stays ``scipy-highs`` (the same sanctioned sharing as
    :class:`BatchLPBackend`: identical solver, interchangeable
    results), and results land in the same cache partition.

    Costs, honestly: every system and every result crosses a process
    boundary as a pickle, and these systems are a handful of rows each.
    The pool only pays off when a batch's *solver* time outweighs its
    *serialisation* time — large batches, higher dimensions, or a
    driver process whose GIL is the bottleneck.  Batches smaller than
    ``min_batch`` (and everything on a 1-process pool) are solved
    in-process by the inherited block-diagonal path; a broken pool
    degrades to in-process solving rather than failing the batch.
    Single-system :func:`solve` calls always stay in-process.

    Construction is cheap: the pool is created lazily on first use and
    released by :meth:`close` (also a context manager).  Prefers the
    ``fork`` start context where available (no import-time re-execution
    in children).
    """

    def __init__(
        self,
        procs: int = 2,
        max_batch: int = 256,
        min_batch: int = 16,
    ) -> None:
        super().__init__(max_batch=max_batch)
        if procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        if min_batch < 2:
            raise ValueError(f"min_batch must be >= 2, got {min_batch}")
        self.procs = int(procs)
        self.min_batch = int(min_batch)
        self._pool: object | None = None
        self._pool_lock = threading.Lock()

    # -- pool lifecycle ------------------------------------------------------

    def __enter__(self) -> "ProcessPoolLPBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_pool(self) -> object:
        from concurrent.futures import ProcessPoolExecutor

        with self._pool_lock:
            if self._pool is None:
                import multiprocessing

                context = (
                    multiprocessing.get_context("fork")
                    if "fork" in multiprocessing.get_all_start_methods()
                    else None
                )
                self._pool = ProcessPoolExecutor(
                    max_workers=self.procs, mp_context=context
                )
            return self._pool

    def close(self) -> None:
        """Shut the solver pool down (idempotent; pool restarts lazily)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)  # type: ignore[attr-defined]

    # -- solving -------------------------------------------------------------

    def solve_many_raw(
        self, systems: Sequence[LPSystem]
    ) -> list[LPResult | LPError]:
        """Solve every system, chunked across the pool; input order.

        Falls back to the inherited in-process stacking when the batch
        is below ``min_batch``, the pool is one process, or the pool
        breaks mid-flight (counting only the in-process solves then).
        """
        systems = list(systems)
        if len(systems) < self.min_batch or self.procs == 1:
            return super().solve_many_raw(systems)
        chunk_count = min(self.procs, len(systems))
        bounds_idx = np.linspace(0, len(systems), chunk_count + 1).astype(int)
        chunks = [
            systems[start:stop]
            for start, stop in zip(bounds_idx[:-1], bounds_idx[1:])
            if stop > start
        ]
        pool = self._ensure_pool()
        try:
            futures = [
                pool.submit(_pool_solve_chunk, chunk)  # type: ignore[attr-defined]
                for chunk in chunks
            ]
            parts = [future.result() for future in futures]
        except Exception:  # noqa: BLE001 -- pool death is recoverable
            # A dead pool (killed child, exhausted fds) must not fail
            # the LP layer; solve in-process and rebuild the pool on
            # the next batch.
            self.close()
            return super().solve_many_raw(systems)
        outcomes: list[LPResult | LPError] = []
        raw_solves = 0
        for chunk_outcomes, chunk_solves in parts:
            outcomes.extend(chunk_outcomes)
            raw_solves += chunk_solves
        self.count_solves(raw_solves)
        return outcomes


#: Process-wide default backend; :func:`use_backend` overrides it per
#: context.  The default batches: single-system behaviour is inherited
#: from :class:`ScipyHighsBackend` unchanged, and :func:`solve_many`
#: gets block-diagonal stacking out of the box.
_default_backend = BatchLPBackend()

#: Installed backend override, context-local for the same reason the cache
#: is: concurrent engines on other threads/tasks must not see each other's
#: installations.
_active_backend: ContextVar[LPBackend | None] = ContextVar(
    "repro_lp_active_backend", default=None
)


def active_backend() -> LPBackend:
    """The backend :func:`solve` currently routes raw solves through."""
    return _active_backend.get() or _default_backend


@contextmanager
def use_backend(backend: LPBackend) -> Iterator[LPBackend]:
    """Route every :func:`solve` inside the block through ``backend``.

    Nesting is allowed; the innermost backend wins and the previous one
    is restored on exit.  Composes with :func:`use_cache`: the cache
    still answers hits, and only misses reach ``backend``.
    """
    token = _active_backend.set(backend)
    try:
        yield backend
    finally:
        _active_backend.reset(token)


def _cache_tag(backend: LPBackend) -> bytes:
    """Cache-key partition tag for ``backend``.

    The default solver keeps the legacy untagged keys (external key
    computations stay valid); alternative backends get their own cache
    partition so results never cross.  :class:`BatchLPBackend` shares
    the default name on purpose — see its docstring.
    """
    return (
        b""
        if backend.name == ScipyHighsBackend.name
        else backend.name.encode()
    )


def solve(
    c: np.ndarray,
    a_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    bounds: Sequence[tuple[float | None, float | None]] | tuple | None = _FREE,
    kind: str = "generic",
) -> LPResult:
    """Minimise ``c . x`` subject to ``a_ub x <= b_ub`` and ``a_eq x = b_eq``.

    Unlike raw ``linprog``, variables are *free* by default (``linprog``
    defaults to ``x >= 0``, which silently corrupts reduced-space geometry).
    The raw solve is delegated to the active :class:`LPBackend`
    (scipy-HiGHS unless :func:`use_backend` installed another), behind the
    active :class:`LPCache` if one is installed.

    ``kind`` labels the LP family for observability spans only — it
    never enters the cache key, so two kinds naming the identical
    system still share one cache entry.

    Raises
    ------
    InfeasibleLP, UnboundedLP, LPError
    """
    backend = active_backend()
    cache = _active_cache.get()
    tracer = active_tracer()
    if cache is None:
        backend.count_solves()
        if tracer is None:
            return backend.solve_raw(c, a_ub, b_ub, a_eq, b_eq, bounds)
        with tracer.span(f"lp.solve/{kind}/uncached"):
            return backend.solve_raw(c, a_ub, b_ub, a_eq, b_eq, bounds)
    key = constraint_system_key(
        c, a_ub, b_ub, a_eq, b_eq, bounds, tag=_cache_tag(backend)
    )
    entry = cache.lookup(key)
    if entry is not None:
        if tracer is None:
            return LPCache.replay(entry)
        tracer.counter("lp.cache.hits")
        with tracer.span(f"lp.solve/{kind}/hit"):
            return LPCache.replay(entry)
    backend.count_solves()
    span = (
        nullcontext()
        if tracer is None
        else tracer.span(f"lp.solve/{kind}/miss")
    )
    if tracer is not None:
        tracer.counter("lp.cache.misses")
    with span:
        try:
            result = backend.solve_raw(c, a_ub, b_ub, a_eq, b_eq, bounds)
        except LPError as error:
            cache.store(key, (type(error), str(error)))
            raise
    cache.store(key, result)
    return LPResult(x=result.x.copy(), value=result.value)


def maximize(
    c: np.ndarray,
    a_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    bounds: Sequence[tuple[float | None, float | None]] | tuple | None = _FREE,
    kind: str = "generic",
) -> LPResult:
    """Maximise ``c . x``; see :func:`solve` for conventions."""
    result = solve(
        -np.asarray(c, dtype=float), a_ub, b_ub, a_eq, b_eq, bounds, kind=kind
    )
    return LPResult(x=result.x, value=-result.value)


def solve_many(
    systems: Sequence[LPSystem], kind: str = "generic"
) -> list[LPResult | LPError]:
    """Solve every system, returning per-system outcomes in input order.

    Each outcome is the system's :class:`LPResult` or its failure as an
    :class:`~repro.errors.LPError` *instance* (returned, not raised —
    one batch can mix feasible, infeasible and unbounded members; the
    caller decides what each failure means).

    Cache interaction is exactly ``len(systems)`` sequential
    :func:`solve` calls: hits are peeled off individually before any
    solver work, and misses are stored individually after — so a later
    :func:`solve` of the same system replays the batched result as an
    ordinary hit.  That is the hand-off the serving engines use to
    prime a wave's probes in one stacked call.

    The remaining misses go through the active backend's
    ``solve_many_raw`` when it provides one (:class:`BatchLPBackend`,
    the default, stacks them block-diagonally) and fall back to
    sequential :meth:`~LPBackend.solve_raw` calls otherwise.

    When a tracer is installed the miss work records one span
    ``lp.solve_many/<kind>`` tagged with the batch size, and hits and
    misses feed the same ``lp.cache.*`` counters as :func:`solve`.
    """
    systems = list(systems)
    backend = active_backend()
    cache = _active_cache.get()
    tracer = active_tracer()
    outcomes: list[LPResult | LPError | None] = [None] * len(systems)
    keys: list[bytes] | None = None
    if cache is None:
        pending = list(range(len(systems)))
    else:
        tag = _cache_tag(backend)
        keys = [system.key(tag) for system in systems]
        pending = []
        for index, key in enumerate(keys):
            entry = cache.lookup(key)
            if entry is None:
                pending.append(index)
            elif isinstance(entry, LPResult):
                outcomes[index] = entry
            else:
                error_type, message = entry
                outcomes[index] = error_type(message)
    if tracer is not None and cache is not None:
        hits = len(systems) - len(pending)
        if hits:
            tracer.counter("lp.cache.hits", hits)
        if pending:
            tracer.counter("lp.cache.misses", len(pending))
    if pending:
        todo = [systems[index] for index in pending]
        span = (
            nullcontext()
            if tracer is None
            else tracer.span(f"lp.solve_many/{kind}", batch=len(todo))
        )
        with span:
            solve_stack = getattr(backend, "solve_many_raw", None)
            if solve_stack is not None:
                raw = solve_stack(todo)
            else:
                raw = []
                for system in todo:
                    backend.count_solves()
                    try:
                        raw.append(
                            backend.solve_raw(
                                system.c, system.a_ub, system.b_ub,
                                system.a_eq, system.b_eq, system.bounds,
                            )
                        )
                    except LPError as error:
                        raw.append(error)
        for index, outcome in zip(pending, raw):
            if cache is not None and keys is not None:
                if isinstance(outcome, LPResult):
                    cache.store(keys[index], outcome)
                else:
                    cache.store(keys[index], (type(outcome), str(outcome)))
            outcomes[index] = outcome
    # Fresh x copies throughout: callers may mutate, cached entries may
    # be replayed later.
    return [
        LPResult(x=outcome.x.copy(), value=outcome.value)
        if isinstance(outcome, LPResult)
        else outcome
        for outcome in outcomes  # type: ignore[misc]
    ]


# ---------------------------------------------------------------------------
# Reduced-space helpers (H-polytope  A x <= b)
# ---------------------------------------------------------------------------

def chebyshev_center(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Centre and radius of the largest ball inscribed in ``{A x <= b}``.

    Solves ``max r  s.t.  A x + ||A_i|| r <= b`` with ``r >= 0`` — the
    classic Chebyshev centre LP.  If the polytope is empty the LP itself
    is infeasible and :class:`InfeasibleLP` is raised; a radius of (near)
    zero means the polytope is flat.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    norms = np.linalg.norm(a, axis=1)
    k = a.shape[1]
    # Variables: (x_1..x_k, r); maximise r.
    a_ext = np.hstack([a, norms[:, None]])
    c = np.zeros(k + 1)
    c[-1] = -1.0
    bounds = [_FREE] * k + [(0.0, None)]
    result = solve(c, a_ub=a_ext, b_ub=b, bounds=bounds, kind="chebyshev")
    return result.x[:k], float(result.x[-1])


def support_value(a: np.ndarray, b: np.ndarray, direction: np.ndarray) -> float:
    """Support function ``max {direction . x : A x <= b}``."""
    return maximize(direction, a_ub=a, b_ub=b, kind="support").value


def is_feasible(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``{x : A x <= b}`` is non-empty."""
    try:
        chebyshev_center(a, b)
    except InfeasibleLP:
        return False
    return True


def constraint_is_redundant(
    a: np.ndarray, b: np.ndarray, index: int, tol: float = FEASIBILITY_TOL
) -> bool:
    """Whether constraint ``index`` is implied by the remaining ones.

    Constraint ``a_i . x <= b_i`` is redundant iff maximising ``a_i . x``
    over the other constraints stays ``<= b_i``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mask = np.ones(a.shape[0], dtype=bool)
    mask[index] = False
    try:
        best = maximize(
            a[index], a_ub=a[mask], b_ub=b[mask], kind="redundancy"
        ).value
    except UnboundedLP:
        return False
    except InfeasibleLP:
        # Remaining set empty: the whole polytope is empty; treat as
        # non-redundant so emptiness is detected by the caller.
        return False
    return best <= b[index] + tol


# ---------------------------------------------------------------------------
# Ambient-space helpers over the simplex (used by algorithm AA)
# ---------------------------------------------------------------------------

def _ambient_system(
    halfspaces: Sequence[PreferenceHalfspace], d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assemble ``A_ub u <= b_ub`` / ``A_eq u = b_eq`` for the ambient range.

    Constraints: ``u >= 0``, ``sum(u) = 1`` and ``u . n >= 0`` for every
    learned half-space normal ``n``.
    """
    rows = [-np.eye(d)]
    if halfspaces:
        rows.append(np.array([-h.normal for h in halfspaces]))
    a_ub = np.vstack(rows)
    b_ub = np.zeros(a_ub.shape[0])
    a_eq = np.ones((1, d))
    b_eq = np.ones(1)
    return a_ub, b_ub, a_eq, b_eq


def ambient_feasibility_system(
    halfspaces: Sequence[PreferenceHalfspace], d: int
) -> LPSystem:
    """The zero-objective system behind :func:`ambient_is_feasible`.

    Exposed so the serving engines can stack many sessions' feasibility
    probes through :func:`solve_many`; a session's own
    :func:`ambient_is_feasible` call then replays the cached result.
    """
    a_ub, b_ub, a_eq, b_eq = _ambient_system(halfspaces, d)
    return LPSystem(c=np.zeros(d), a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


def ambient_bounds_systems(
    halfspaces: Sequence[PreferenceHalfspace], d: int
) -> list[LPSystem]:
    """The ``2d`` probe systems behind :func:`ambient_bounds`.

    Ordered ``min_0, max_0, min_1, max_1, ...``; the ``max`` probes are
    spelled as negated-objective minimisations (exactly what
    :func:`maximize` submits), so their values negate back.
    """
    a_ub, b_ub, a_eq, b_eq = _ambient_system(halfspaces, d)
    systems: list[LPSystem] = []
    for i in range(d):
        c = np.zeros(d)
        c[i] = 1.0
        systems.append(
            LPSystem(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        )
        systems.append(
            LPSystem(c=-c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        )
    return systems


def ambient_is_feasible(
    halfspaces: Sequence[PreferenceHalfspace], d: int
) -> bool:
    """Whether the utility range defined by ``halfspaces`` is non-empty."""
    a_ub, b_ub, a_eq, b_eq = _ambient_system(halfspaces, d)
    try:
        solve(
            np.zeros(d), a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
            kind="ambient.feasible",
        )
    except InfeasibleLP:
        return False
    return True


def ambient_bounds(
    halfspaces: Sequence[PreferenceHalfspace], d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Outer rectangle ``(e_min, e_max)`` of the ambient utility range.

    Solves two LPs per dimension, exactly as Section IV-C prescribes —
    issued through :func:`solve_many`, so the uncached probes of one
    call stack into a single HiGHS solve.

    Raises
    ------
    EmptyRegionError
        If the utility range is empty (inconsistent answers).
    """
    outcomes = solve_many(
        ambient_bounds_systems(halfspaces, d), kind="ambient.bounds"
    )
    e_min = np.empty(d)
    e_max = np.empty(d)
    for i in range(d):
        for outcome in (outcomes[2 * i], outcomes[2 * i + 1]):
            if isinstance(outcome, InfeasibleLP):
                raise EmptyRegionError(
                    "utility range is empty; user answers are inconsistent"
                ) from outcome
            if isinstance(outcome, LPError):
                raise outcome
        e_min[i] = outcomes[2 * i].value  # type: ignore[union-attr]
        e_max[i] = -outcomes[2 * i + 1].value  # type: ignore[union-attr]
    return e_min, e_max


def ambient_inner_sphere(
    halfspaces: Sequence[PreferenceHalfspace], d: int
) -> tuple[np.ndarray, float]:
    """Inner sphere ``(B_c, B_r)`` of the ambient utility range (Section IV-C).

    Maximises the radius ``r`` such that the centre lies on the simplex and
    keeps Euclidean distance ``>= r`` from every learned hyper-plane *and*
    from every simplex facet ``u_i = 0``.  (The paper's LP only bounds the
    distance to learned hyper-planes; including the simplex facets makes the
    sphere well-defined for the empty answer set ``H = {}`` as well and is
    the natural inscribed sphere of ``R``.)

    Raises
    ------
    EmptyRegionError
        If the utility range is empty.
    """
    # Variables: (u_1..u_d, r).  Maximise r.
    rows: list[np.ndarray] = []
    # Distance to facet u_i = 0 is u_i:  -u_i + r <= 0.
    facet = np.hstack([-np.eye(d), np.ones((d, 1))])
    rows.append(facet)
    for h in halfspaces:
        # Distance to plane u . n = 0 is u . n / ||n||:  -u . n_hat + r <= 0.
        rows.append(np.append(-h.unit_normal, 1.0)[None, :])
    a_ub = np.vstack(rows)
    b_ub = np.zeros(a_ub.shape[0])
    a_eq = np.append(np.ones(d), 0.0)[None, :]
    b_eq = np.ones(1)
    c = np.zeros(d + 1)
    c[-1] = -1.0
    bounds = [_FREE] * d + [(0.0, None)]
    try:
        result = solve(
            c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, bounds=bounds,
            kind="ambient.sphere",
        )
    except InfeasibleLP as exc:
        raise EmptyRegionError(
            "utility range is empty; user answers are inconsistent"
        ) from exc
    return result.x[:d], float(result.x[-1])


def ambient_split_margins(
    halfspaces: Sequence[PreferenceHalfspace], d: int, normals: np.ndarray
) -> np.ndarray:
    """How far the utility range extends into each ``{u : u . n >= 0}``.

    ``normals`` is a ``(k, d)`` stack; entry ``i`` of the result is
    ``max {u . normals[i] : u in R}``.  A value ``> tol`` certifies that
    the positive side of that candidate hyper-plane intersects ``R`` (the
    LP check of Section IV-C used to guarantee strict narrowing, Lemma 8).
    Entries are ``-inf`` if ``R`` is empty.

    All ``k`` probes go through one :func:`solve_many` call, so the
    uncached ones stack into a single HiGHS solve.  Margins are
    value-only consumers, but a stacked solve may still land on an
    alternative optimal vertex whose ``c . x`` differs from the
    one-at-a-time value in the last ulp; callers compare margins with a
    tolerance far above that, so their decisions do not change.

    Raises
    ------
    LPError
        The first failure other than :class:`InfeasibleLP`, in row order.
    """
    normals = np.asarray(normals, dtype=float)
    a_ub, b_ub, a_eq, b_eq = _ambient_system(halfspaces, d)
    outcomes = solve_many(
        [
            LPSystem(c=-normal, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
            for normal in normals
        ],
        kind="ambient.margin",
    )
    margins = np.empty(len(outcomes))
    for row, outcome in enumerate(outcomes):
        if isinstance(outcome, InfeasibleLP):
            margins[row] = -np.inf
        elif isinstance(outcome, LPError):
            raise outcome
        else:
            margins[row] = -outcome.value
    return margins
