"""Typed linear-programming helpers over scipy's bundled HiGHS solver.

Two families of helpers live here:

* *Reduced-space* LPs over H-polytopes ``{x : A x <= b}`` used by
  :class:`repro.geometry.range.ExactRange` (Chebyshev centre,
  feasibility, support functions, redundancy tests).
* *Ambient-space* LPs over a list of
  :class:`~repro.geometry.hyperplane.PreferenceHalfspace` plus the simplex
  equality ``sum(u) = 1`` used by algorithm AA, which never materialises
  the polytope (Section IV-C): inner sphere, outer rectangle, and the
  stacked split-margin checks for candidate questions.

Every LP is an :class:`LPSystem`: ``min c . x`` subject to
``a_ub x <= b_ub`` and ``a_eq x = b_eq``, with ``bounds`` either
``None`` (every variable free) or an ``(n, 2)`` float64 array of
``(lo, hi)`` rows, ``±inf`` for open sides.  :func:`solve` takes one
system and :func:`solve_many` a list; both normalise HiGHS statuses into
the package exception hierarchy.

The solver call: :func:`_highs_solve` hands HiGHS
(``scipy.optimize._highspy._core``) the same model, with the same
options, that ``scipy.optimize.linprog(method="highs")`` builds, as
arrays through ``passModel``, on a fresh solver instance, and keeps
``linprog``'s status mapping and post-solve feasibility check.
Solutions are byte-equal to ``linprog``'s (``tests/geometry/test_lp.py``
compares them), without ``linprog``'s per-call Python overhead: one
raw solve of a mid-session Chebyshev LP costs about 0.85 ms instead of
2.3-2.8 ms on a 2-vCPU host.

Memoisation: identical constraint systems recur heavily when many
interactive sessions run over one dataset (every fresh session starts
from the same simplex, and popular questions re-derive the same
feasibility and inner-sphere LPs).  :class:`LPCache` memoises solves
keyed on :meth:`LPSystem.key`, a hash of the full system; installing
one with :func:`use_cache` routes every :func:`solve` and
:func:`solve_many` inside the ``with`` block through it.  Cache hits
return the *exact* result of the original solve (failures included),
so caching never perturbs downstream decisions — it only skips
redundant solver work.

Raw solves: behind the cache sit two module functions, both on
:func:`_highs_solve` — :func:`solve_raw` (one system) and
:func:`solve_stacked` (many systems, block-diagonally).  Every HiGHS
run they make bumps one process-wide counter, :func:`solve_count`, so
``cache.hits`` over a run is exactly the solver work the cache spared.

One cache path: :func:`solve` and :func:`solve_many` share
:func:`_solve_cached`, which looks every system up, stacks the misses
into :func:`solve_stacked` and stores each outcome back individually,
so a system first met in a batch replays later as an ordinary
:func:`solve` hit.  Stacking amortises the per-solve model set-up that
rivals the simplex work on these tiny systems (each one is a handful of
rows); see ``benchmarks/bench_micro_geometry.py``.

Observability: when a :class:`~repro.obs.tracer.Tracer` is installed
(:func:`repro.obs.use_tracer`), every :func:`solve` records a span named
``lp.solve/<kind>/<hit|miss|uncached>`` and every :func:`solve_many`
that reaches the solver records ``lp.solve_many/<kind>`` tagged with
the number of systems solved.  ``kind`` identifies the LP family
(``chebyshev``, ``ambient.sphere``, ...) and never affects cache keys.
Lookups feed the ``lp.cache.hits`` / ``lp.cache.misses`` counters.
With no tracer installed the only cost is one ``ContextVar`` read per
call.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
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

#: Entries an :class:`LPCache` holds before it evicts least-recently-used.
_CACHE_ENTRIES = 100_000


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


@functools.cache
def _free_bounds(n: int) -> np.ndarray:
    """Read-only ``(n, 2)`` bounds of ``n`` free variables."""
    bounds = np.tile([-np.inf, np.inf], (n, 1))
    bounds.setflags(write=False)
    return bounds


@functools.cache
def _free_bytes(n: int) -> bytes:
    """:func:`_array_bytes` of :func:`_free_bounds`, built once per ``n``."""
    return _array_bytes(_free_bounds(n))


def _radius_bounds(n: int) -> np.ndarray:
    """``(n, 2)`` bounds: free variables, then a nonnegative radius."""
    bounds = _free_bounds(n).copy()
    bounds[-1, 0] = 0.0
    return bounds


@dataclass(frozen=True)
class LPSystem:
    """``min c . x`` subject to ``a_ub x <= b_ub`` and ``a_eq x = b_eq``.

    ``bounds`` is ``None`` for *free* variables (unlike raw ``linprog``,
    which defaults to ``x >= 0``, silently corrupting reduced-space
    geometry) or an ``(n, 2)`` float64 array of ``(lo, hi)`` rows with
    ``±inf`` for open sides.  Absent constraint families are ``None``.
    """

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    bounds: np.ndarray | None = None

    def key(self) -> bytes:
        """SHA-256 of the system: objective, constraint blocks, bounds.

        Two systems share a key iff every array is byte-for-byte equal
        (same shapes, same floats; memory layout does not matter), so a
        cache hit is guaranteed to stand in for an actual re-solve of
        the *identical* system.  ``bounds=None`` hashes as its explicit
        all-free array.
        """
        digest = hashlib.sha256()
        digest.update(_array_bytes(self.c))
        for block in (self.a_ub, self.b_ub, self.a_eq, self.b_eq):
            digest.update(b"|")
            digest.update(_array_bytes(block))
        digest.update(b"|")
        digest.update(
            _free_bytes(self.size)
            if self.bounds is None
            else _array_bytes(self.bounds)
        )
        # The closing separator keeps keys byte-identical across releases.
        digest.update(b"|")
        return digest.digest()

    @property
    def size(self) -> int:
        """Number of variables."""
        return int(np.asarray(self.c).shape[-1])


class LPCache:
    """Memoises LP solves keyed on :meth:`LPSystem.key`.

    Entries store either the successful :class:`LPResult` or the exception
    class + message of a failed solve, so infeasibility checks are cached
    as effectively as optimisations.  Counters expose the solver work
    saved: ``solves`` is the total number of systems routed through the
    cache by :func:`solve` and :func:`solve_many`, split into ``hits``
    and ``misses``.

    The cache has no invalidation protocol: keys bind the *entire*
    constraint system, so a stored result can never go stale.  The
    footprint is bounded at ``_CACHE_ENTRIES`` entries; eviction is
    least-recently-*used* (a hit refreshes an entry's recency), so the
    hot simplex-startup systems every fresh session re-derives stay
    resident under sustained load instead of being the first insertions
    evicted.

    Thread safety: :meth:`lookup` and :meth:`store` — the two operations
    the solves use — take an internal lock, so one cache can be
    shared by several threads.  An engine's ticks are serialised by
    its own lock, but the thread that ticks it can change (the HTTP
    service's collector thread, or a caller driving :meth:`drain
    <repro.serve.scheduler.ContinuousEngine.drain>` directly).  Two
    threads racing the same uncached system may both miss and both
    solve — a small duplicated effort, never a wrong answer, because
    entries are immutable once derived from the keyed system.
    """

    def __init__(self) -> None:
        self._store: OrderedDict[
            bytes, LPResult | tuple[type[LPError], str]
        ] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def solves(self) -> int:
        """Total systems routed through this cache."""
        return self.hits + self.misses

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    # -- the cache protocol --------------------------------------------------

    def lookup(
        self, key: bytes
    ) -> LPResult | tuple[type[LPError], str] | None:
        """Atomically probe ``key``, counting the hit or miss.

        Returns the stored entry — an :class:`LPResult` (shared with the
        cache: copy ``x`` before handing it out) or a ``(error_type,
        message)`` failure pair — or ``None`` on a miss.  A hit counts
        as a *use*: the entry moves to the recent end of the LRU order,
        so frequently replayed systems survive eviction.
        """
        with self._lock:
            entry = self._store.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._store.move_to_end(key)
            return entry

    def store(
        self, key: bytes, entry: LPResult | tuple[type[LPError], str]
    ) -> None:
        """Atomically record ``entry`` under ``key``, evicting LRU-first."""
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
            elif len(self._store) >= _CACHE_ENTRIES:
                self._store.popitem(last=False)
            self._store[key] = entry


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
    """Route every :func:`solve` and :func:`solve_many` inside the block
    through ``cache``.

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
#: it into each solver instance, so threads and forked workers can share
#: it.
_HIGHS_OPTIONS = _default_highs_options()

#: ``passModel``'s matrix-format and objective-sense codes.
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)

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
    if system.bounds is None:
        bounds = _free_bounds(n)
    else:
        bounds = np.asarray(system.bounds, dtype=float)
        if bounds.shape != (n, 2) or np.isnan(bounds).any():
            raise ValueError(
                f"bounds must be an ({n}, 2) array, ±inf for open sides"
            )
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
    * column bounds from :attr:`LPSystem.bounds` (all free for
      ``None``), ``±inf`` mapped to ``±kHighsInf``;
    * :data:`_HIGHS_OPTIONS`, on a fresh solver instance per call, so
      no basis or solution state carries from one solve to the next.

    The model goes in as arrays through ``passModel``'s array overload,
    with an all-continuous integrality vector, which HiGHS treats as
    the plain LP a ``HighsLp`` without integrality is; the byte-equality
    tests against ``linprog`` cover this path.  Setting ``HighsLp``
    attributes instead converts the matrix one element at a time.

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

    highs = _highs._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    passed = highs.passModel(
        c.size, rhs.size, values.size,
        _COLWISE, _MINIMIZE, 0.0,
        c,
        _highs_inf(bounds[:, 0]),
        _highs_inf(bounds[:, 1]),
        _highs_inf(np.concatenate((np.full(n_ub, -np.inf), b_eq))),
        rhs,
        start,
        np.concatenate(index).astype(np.int32),
        values,
        np.zeros(c.size, dtype=np.int32),
    )
    if passed == _highs.HighsStatus.kError:
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


#: Most systems :func:`solve_stacked` hands HiGHS in one run; longer
#: lists are solved in consecutive chunks of this size.
_MAX_STACK = 256

#: Raw HiGHS runs in this process (see :func:`solve_count`).
_solves = 0
_solves_lock = threading.Lock()


def _reset_solves_lock() -> None:
    """Give a forked child a fresh lock.

    Dispatcher workers fork from a thread while other threads may be
    solving; a child that inherited the lock held would hang on its
    first solve.
    """
    global _solves_lock
    _solves_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_reset_solves_lock)


def _count_solve() -> None:
    """Record one raw HiGHS run (thread-safe)."""
    global _solves
    with _solves_lock:
        _solves += 1


def solve_count() -> int:
    """Raw HiGHS runs so far in this process, stacked runs counting once.

    Cache hits never reach the solver, so over a run ``cache.hits`` is
    exactly the solver work the cache spared.  The counter is shared by
    every thread; callers measure their own work as a before/after
    delta.
    """
    return _solves


def solve_raw(system: LPSystem) -> LPResult:
    """One uncached HiGHS solve of ``system``; raises ``LPError`` kinds.

    :func:`_highs_solve` passes HiGHS the same model, with the same
    options and post-checks, that ``scipy.optimize.linprog(method=
    "highs")`` would, so solutions are byte-equal to ``linprog``'s.
    Skipping ``linprog``'s Python wrapper cuts one raw Chebyshev solve
    from 2.3-2.8 ms to about 0.85 ms
    (``benchmarks/bench_micro_geometry.py``).
    """
    _count_solve()
    x = _highs_solve([system])
    # The objective is recomputed as c.x rather than read from HiGHS:
    # its reported objective can differ from c.x in the last ulp, and
    # solve_stacked() can only recover per-system values from the
    # stacked solution as c_i.x_i.  Computing both paths' values with
    # the same expression keeps stacked and one-at-a-time solves
    # bit-identical whenever their optima agree.
    return LPResult(x=x, value=float(np.dot(np.asarray(system.c, float), x)))


def solve_stacked(systems: Sequence[LPSystem]) -> list[LPResult | LPError]:
    """Solve every system block-diagonally; outcomes in input order.

    Up to :data:`_MAX_STACK` systems go into one HiGHS run: they share
    no variables, so the stacked optimum decomposes exactly into
    per-system optima.  Each solution is sliced back out and its value
    recovered as ``c_i . x_i`` — the expression :func:`solve_raw` uses,
    so a stacked and a one-at-a-time solve of a system give the same
    value whenever their optima agree.  The win is amortisation: each
    of these systems is a handful of rows, and the per-run model
    set-up rivals the simplex work.

    A single failing member poisons the whole stack (HiGHS reports one
    status for the stacked problem, with no per-block attribution), so
    a failed stack is bisected until the failing members are isolated
    as singletons and solved through :func:`solve_raw`, giving every
    member its own exception (returned, not raised) from the package
    hierarchy.
    """
    systems = list(systems)
    outcomes: list[LPResult | LPError] = []
    for start in range(0, len(systems), _MAX_STACK):
        outcomes.extend(_solve_stack(systems[start:start + _MAX_STACK]))
    return outcomes


def _solve_stack(systems: list[LPSystem]) -> list[LPResult | LPError]:
    """One chunk of :func:`solve_stacked`, bisected on failure."""
    if not systems:
        return []
    if len(systems) == 1:
        try:
            return [solve_raw(systems[0])]
        except LPError as error:
            return [error]
    _count_solve()
    try:
        x = _highs_solve(systems)
    except LPError:
        # At least one member is infeasible or unbounded (or HiGHS hit a
        # limit); bisect to isolate which.
        mid = len(systems) // 2
        return _solve_stack(systems[:mid]) + _solve_stack(systems[mid:])
    outcomes: list[LPResult | LPError] = []
    offset = 0
    for system in systems:
        n = system.size
        xi = x[offset:offset + n].copy()
        ci = np.asarray(system.c, dtype=float)
        outcomes.append(LPResult(x=xi, value=float(np.dot(ci, xi))))
        offset += n
    return outcomes


def _solve_cached(
    systems: list[LPSystem], kind: str, many: bool
) -> list[LPResult | LPError]:
    """The one cache path behind :func:`solve` and :func:`solve_many`.

    Looks every system up in the active cache, solves the misses (or,
    with no cache installed, every system) through :func:`solve_stacked`
    and stores each outcome back under its own key.  Outcomes come back
    in input order, each a fresh :class:`LPResult` (callers may mutate
    ``x``) or an :class:`~repro.errors.LPError` instance.

    With a tracer installed, lookups bump ``lp.cache.hits`` and
    ``lp.cache.misses``; a single solve (``many=False``) records
    ``lp.solve/<kind>/<hit|miss|uncached>`` and a batch that reaches
    the solver records ``lp.solve_many/<kind>`` tagged with its size.
    """
    cache = _active_cache.get()
    tracer = active_tracer()
    outcomes: list[Any] = [None] * len(systems)
    keys: list[bytes] = []
    pending = list(range(len(systems)))
    if cache is not None:
        keys = [system.key() for system in systems]
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
        if tracer is not None:
            hits = len(systems) - len(pending)
            if hits:
                tracer.counter("lp.cache.hits", hits)
            if pending:
                tracer.counter("lp.cache.misses", len(pending))
    if tracer is None or (many and not pending):
        span: Any = nullcontext()
    elif many:
        span = tracer.span(f"lp.solve_many/{kind}", batch=len(pending))
    else:
        label = "uncached" if cache is None else "miss" if pending else "hit"
        span = tracer.span(f"lp.solve/{kind}/{label}")
    with span:
        solved = (
            solve_stacked([systems[index] for index in pending])
            if pending
            else []
        )
    for index, result in zip(pending, solved):
        if cache is not None:
            cache.store(
                keys[index],
                result
                if isinstance(result, LPResult)
                else (type(result), str(result)),
            )
        outcomes[index] = result
    # Fresh x copies throughout: cached entries may be replayed later.
    return [
        LPResult(x=outcome.x.copy(), value=outcome.value)
        if isinstance(outcome, LPResult)
        else outcome
        for outcome in outcomes
    ]


def solve(system: LPSystem, kind: str = "generic") -> LPResult:
    """Solve one system, behind the active :class:`LPCache` if any.

    ``kind`` labels the LP family for observability spans only — it
    never enters the cache key, so two kinds naming the identical
    system still share one cache entry.  To maximise ``c . x``, solve
    ``-c`` and negate the value.

    Raises
    ------
    InfeasibleLP, UnboundedLP, LPError
    """
    (outcome,) = _solve_cached([system], kind, many=False)
    if isinstance(outcome, LPError):
        raise outcome
    return outcome


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
    ordinary hit.  That is the hand-off the serving engine uses to
    prime a tick's probes in one stacked call.  The misses are stacked
    block-diagonally by :func:`solve_stacked`.
    """
    return _solve_cached(list(systems), kind, many=True)


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
    result = solve(
        LPSystem(c, a_ext, b, bounds=_radius_bounds(k + 1)), kind="chebyshev"
    )
    return result.x[:k], float(result.x[-1])


def support_value(a: np.ndarray, b: np.ndarray, direction: np.ndarray) -> float:
    """Support function ``max {direction . x : A x <= b}``."""
    c = -np.asarray(direction, dtype=float)
    return -solve(LPSystem(c, a, b), kind="support").value


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
        best = -solve(
            LPSystem(-a[index], a[mask], b[mask]), kind="redundancy"
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

def ambient_feasibility_system(
    halfspaces: Sequence[PreferenceHalfspace], d: int
) -> LPSystem:
    """The zero-objective system of the ambient range.

    Constraints: ``u >= 0`` (as ``-u <= 0`` rows), ``u . n >= 0`` for
    every learned half-space normal ``n``, and ``sum(u) = 1``; variables
    are free.  Every ambient probe shares these constraint arrays and
    swaps in its own objective.  Exposed so the serving engines can
    stack many sessions' feasibility probes through :func:`solve_many`;
    a session's own :func:`ambient_is_feasible` call then replays the
    cached result.
    """
    rows = [-np.eye(d)]
    if halfspaces:
        rows.append(np.array([-h.normal for h in halfspaces]))
    a_ub = np.vstack(rows)
    return LPSystem(
        c=np.zeros(d),
        a_ub=a_ub,
        b_ub=np.zeros(a_ub.shape[0]),
        a_eq=np.ones((1, d)),
        b_eq=np.ones(1),
    )


def ambient_bounds_systems(
    halfspaces: Sequence[PreferenceHalfspace],
    d: int,
    probes: np.ndarray | None = None,
) -> list[LPSystem]:
    """The probe systems behind :func:`ambient_bounds`.

    The ``2d`` probes are ordered ``min_0, max_0, min_1, max_1, ...``;
    the ``max`` probes are spelled as negated-objective minimisations,
    so their values negate back.  ``probes``, a boolean mask over those
    ``2d``, keeps only the selected systems, in the same order; ``None``
    keeps all of them.
    """
    base = ambient_feasibility_system(halfspaces, d)
    objectives = np.repeat(np.eye(d), 2, axis=0)
    objectives[1::2] *= -1.0
    if probes is not None:
        objectives = objectives[probes]
    return [dataclasses.replace(base, c=c) for c in objectives]


def ambient_feasible_point(
    halfspaces: Sequence[PreferenceHalfspace], d: int
) -> np.ndarray | None:
    """A point of the utility range defined by ``halfspaces``, or ``None``
    if the range is empty: the optimiser of its feasibility LP."""
    try:
        return solve(
            ambient_feasibility_system(halfspaces, d), kind="ambient.feasible"
        ).x
    except InfeasibleLP:
        return None


def ambient_is_feasible(
    halfspaces: Sequence[PreferenceHalfspace], d: int
) -> bool:
    """Whether the utility range defined by ``halfspaces`` is non-empty."""
    return ambient_feasible_point(halfspaces, d) is not None


def ambient_bound_probes(
    halfspaces: Sequence[PreferenceHalfspace], d: int, probes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values and optimisers of the bound probes selected by ``probes``.

    ``probes`` is a boolean mask over the ``2d`` probes of
    :func:`ambient_bounds_systems`.  Returns ``(values (k,), optimisers
    (k, d))`` for the ``k`` selected probes, in probe order: each value
    is the probe's ``c . x`` as :func:`solve_many` returned it (the
    ``max`` probes still negated).  The selected probes go through one
    :func:`solve_many` call, so the uncached ones stack into a single
    HiGHS solve; an all-false mask solves nothing.

    Raises
    ------
    EmptyRegionError
        If the utility range is empty (inconsistent answers).
    """
    outcomes = solve_many(
        ambient_bounds_systems(halfspaces, d, probes), kind="ambient.bounds"
    )
    for outcome in outcomes:
        if isinstance(outcome, InfeasibleLP):
            raise EmptyRegionError(
                "utility range is empty; user answers are inconsistent"
            ) from outcome
        if isinstance(outcome, LPError):
            raise outcome
    values = np.array(
        [outcome.value for outcome in outcomes],  # type: ignore[union-attr]
        dtype=float,
    )
    optimisers = np.array(
        [outcome.x for outcome in outcomes],  # type: ignore[union-attr]
        dtype=float,
    ).reshape(len(outcomes), d)
    return values, optimisers


def ambient_bounds(
    halfspaces: Sequence[PreferenceHalfspace], d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outer rectangle ``(e_min, e_max)`` of the ambient utility range,
    plus the ``(2d, d)`` stack of the probes' optimisers.

    Solves two LPs per dimension, exactly as Section IV-C prescribes:
    all ``2d`` probes of :func:`ambient_bound_probes`.  Row ``k`` of the
    optimiser stack is probe ``k``'s ``x``, in
    :func:`ambient_bounds_systems` order.

    :meth:`AmbientRange.bounds
    <repro.geometry.range.AmbientRange.bounds>` re-solves only the
    probes a newly added half-space cuts: a probe's optimiser that
    still satisfies every added half-space is still an optimiser, so
    its value carries over unchanged (see docs/geometry.md).

    Raises
    ------
    EmptyRegionError
        If the utility range is empty (inconsistent answers).
    """
    values, optimisers = ambient_bound_probes(
        halfspaces, d, np.ones(2 * d, dtype=bool)
    )
    return values[0::2], -values[1::2], optimisers


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
    system = LPSystem(c, a_ub, b_ub, a_eq, b_eq, _radius_bounds(d + 1))
    try:
        result = solve(system, kind="ambient.sphere")
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

    :meth:`AmbientRange.split_margin
    <repro.geometry.range.AmbientRange.split_margin>` calls this only
    for the rows its witness points cannot certify; every row here is
    a full LP maximum.

    Raises
    ------
    LPError
        The first failure other than :class:`InfeasibleLP`, in row order.
    """
    normals = np.asarray(normals, dtype=float)
    base = ambient_feasibility_system(halfspaces, d)
    outcomes = solve_many(
        [dataclasses.replace(base, c=-normal) for normal in normals],
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
