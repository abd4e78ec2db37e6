"""Micro-benchmarks of the geometric primitives.

Not a paper figure.  These time the building blocks that dominate the
algorithms' execution time, so performance regressions in the substrate
are caught independently of end-to-end session times:

* polytope vertex enumeration (EA, UH-*: once per round),
* Chebyshev centre LP (every polytope operation),
* one raw LP solve through ``linprog`` vs the direct HiGHS call
  ``repro.geometry.lp`` makes (the per-call wrapper overhead),
* hit-and-run sampling (EA's anchor discovery),
* minimum enclosing sphere (EA's state encoding),
* ambient inner sphere + bounds (AA: once per round),
* AA's split-margin probes, one LP at a time vs one stacked call,
* incremental range clipping vs from-scratch re-enumeration (the
  :class:`~repro.geometry.range.ExactRange` fast path),
* skyline preprocessing (dataset construction).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

import _common as C
from repro.data.skyline import skyline_indices
from repro.data.synthetic import anti_correlated
from repro.geometry import lp
from repro.geometry.hyperplane import preference_halfspace
from repro.geometry.polytope import UtilityPolytope
from repro.geometry.range import ExactRange
from repro.geometry.sphere import minimum_enclosing_sphere


def _narrowed_polytope(d: int, answers: int, seed: int = 0) -> UtilityPolytope:
    """A realistic mid-session utility range."""
    rng = np.random.default_rng(seed)
    poly = UtilityPolytope.simplex(d)
    for _ in range(answers):
        a, b = rng.uniform(0.05, 1.0, size=(2, d))
        if np.allclose(a, b):
            continue
        candidate = poly.with_halfspace(preference_halfspace(a, b))
        if not candidate.is_empty():
            poly = candidate
    return poly


@pytest.fixture(scope="module")
def mid_session_polytope():
    return _narrowed_polytope(4, answers=6)


def test_micro_vertex_enumeration(mid_session_polytope, benchmark):
    poly = mid_session_polytope

    def enumerate_vertices():
        # Rebuild to bypass the instance cache; this is the real per-round
        # cost an algorithm pays.
        fresh = UtilityPolytope(*poly.constraints, poly.dimension)
        return fresh.vertices()

    vertices = benchmark(enumerate_vertices)
    assert vertices.shape[1] == 4


def test_micro_chebyshev_center(mid_session_polytope, benchmark):
    poly = mid_session_polytope

    def chebyshev():
        fresh = UtilityPolytope(*poly.constraints, poly.dimension)
        return fresh.chebyshev_center()

    center, radius = benchmark(chebyshev)
    assert radius >= 0


@pytest.fixture(scope="module")
def chebyshev_system(mid_session_polytope):
    """The mid-session polytope's Chebyshev LP, as ``chebyshev_center``
    builds it: ``max r`` over ``(x, r)`` with ``A x + ||A_i|| r <= b``."""
    a, b = mid_session_polytope.constraints
    a_ext = np.hstack([a, np.linalg.norm(a, axis=1)[:, None]])
    c = np.zeros(a.shape[1] + 1)
    c[-1] = -1.0
    bounds = [lp._FREE] * a.shape[1] + [(0.0, None)]
    return c, a_ext, b, bounds


def test_micro_lp_solve_raw_linprog(chebyshev_system, benchmark):
    """One raw Chebyshev solve through ``scipy.optimize.linprog``."""
    c, a_ext, b, bounds = chebyshev_system
    result = benchmark(
        lambda: linprog(c, A_ub=a_ext, b_ub=b, bounds=bounds, method="highs")
    )
    assert result.status == 0


def test_micro_lp_solve_raw_direct(chebyshev_system, benchmark):
    """The same solve through the direct HiGHS call; byte-equal ``x``."""
    c, a_ext, b, bounds = chebyshev_system
    backend = lp.ScipyHighsBackend()
    result = benchmark(
        lambda: backend.solve_raw(c, a_ext, b, None, None, bounds)
    )
    reference = linprog(c, A_ub=a_ext, b_ub=b, bounds=bounds, method="highs")
    assert result.x.tobytes() == reference.x.tobytes()


@pytest.mark.parametrize("d", [3, 4, 5])
def test_micro_hit_and_run(benchmark, d):
    """64 draws (370 chain steps) from a mid-session range; d=3 is the
    ladder's EA workload."""
    poly = _narrowed_polytope(d, answers=6)
    samples = benchmark(lambda: poly.sample(64, rng=0))
    assert samples.shape == (64, d)


def test_micro_enclosing_sphere(mid_session_polytope, benchmark):
    vertices = mid_session_polytope.vertices()
    sphere = benchmark(lambda: minimum_enclosing_sphere(vertices, rng=0))
    assert sphere.radius > 0


def test_micro_ambient_inner_sphere(benchmark):
    d = 20
    rng = np.random.default_rng(1)
    spaces = [
        preference_halfspace(*rng.uniform(0.05, 1.0, size=(2, d)))
        for _ in range(15)
    ]
    center, radius = benchmark(lambda: lp.ambient_inner_sphere(spaces, d))
    assert radius >= 0


def test_micro_ambient_bounds(benchmark):
    d = 20
    rng = np.random.default_rng(2)
    spaces = [
        preference_halfspace(*rng.uniform(0.05, 1.0, size=(2, d)))
        for _ in range(15)
    ]
    e_min, e_max = benchmark(lambda: lp.ambient_bounds(spaces, d))
    assert np.all(e_max >= e_min - 1e-9)


def _session_halfspaces(d: int, answers: int, seed: int = 0) -> list:
    """A feasible mid-session answer sequence (shared by both range benches)."""
    rng = np.random.default_rng(seed)
    poly = UtilityPolytope.simplex(d)
    spaces = []
    for _ in range(answers * 6):
        if len(spaces) >= answers:
            break
        a, b = rng.uniform(0.05, 1.0, size=(2, d))
        if np.allclose(a, b):
            continue
        halfspace = preference_halfspace(a, b)
        candidate = poly.with_halfspace(halfspace)
        if not candidate.is_empty():
            poly = candidate
            spaces.append(halfspace)
    return spaces


@pytest.mark.parametrize("d", [3, 4, 5])
def test_micro_range_clip_update(benchmark, d):
    """One session's vertex maintenance via incremental ExactRange clips."""
    spaces = _session_halfspaces(d, answers=8, seed=4)

    def clip_session():
        urange = ExactRange(d)
        for halfspace in spaces:
            urange.update(halfspace)
            urange.vertices()
        return urange

    urange = benchmark(clip_session)
    assert urange.stats.clips >= 1


@pytest.mark.parametrize("d", [3, 4, 5])
def test_micro_range_rebuild_update(benchmark, d):
    """The pre-refactor baseline: re-enumerate vertices from scratch each round."""
    spaces = _session_halfspaces(d, answers=8, seed=4)

    def rebuild_session():
        poly = UtilityPolytope.simplex(d)
        for halfspace in spaces:
            narrowed = poly.with_halfspace(halfspace)
            if narrowed.is_empty():
                continue
            poly = narrowed
            poly.vertices()
        return poly

    poly = benchmark(rebuild_session)
    assert poly.vertices().shape[1] == d


def _stacked_bounds_systems(
    sessions: int, d: int, answers: int, seed: int = 6
) -> list:
    """The ambient-bounds probes of ``sessions`` concurrent mid-session
    ranges, as one flat list of :class:`~repro.geometry.lp.LPSystem`
    (``2d`` probes per session) — the workload the serving engines hand
    to ``solve_many`` every wave."""
    rng = np.random.default_rng(seed)
    base_sets = []
    while len(base_sets) < min(sessions, 16):
        spaces: list = []
        while len(spaces) < answers:
            a, b = rng.uniform(0.05, 1.0, size=(2, d))
            if np.allclose(a, b):
                continue
            trial = spaces + [preference_halfspace(a, b)]
            if lp.ambient_is_feasible(trial, d):
                spaces = trial
        base_sets.append(spaces)
    systems: list = []
    for i in range(sessions):
        systems.extend(
            lp.ambient_bounds_systems(base_sets[i % len(base_sets)], d)
        )
    return systems


@pytest.fixture(scope="module")
def wave_bounds_systems():
    return _stacked_bounds_systems(sessions=256, d=5, answers=10)


def test_micro_bounds_sequential(wave_bounds_systems, benchmark):
    """Per-probe HiGHS calls: the pre-batching per-LP path."""
    backend = lp.ScipyHighsBackend()

    def sequential():
        return [
            backend.solve_raw(
                s.c, s.a_ub, s.b_ub, s.a_eq, s.b_eq, s.bounds
            )
            for s in wave_bounds_systems
        ]

    results = benchmark.pedantic(sequential, rounds=2, iterations=1)
    assert len(results) == len(wave_bounds_systems)


def test_micro_bounds_batched(wave_bounds_systems, benchmark):
    """Block-diagonal stacking via ``BatchLPBackend.solve_many_raw``."""
    backend = lp.BatchLPBackend()

    def batched():
        return backend.solve_many_raw(wave_bounds_systems)

    results = benchmark.pedantic(batched, rounds=2, iterations=1)
    assert len(results) == len(wave_bounds_systems)
    # The stacked objective must decompose exactly: bound probes are
    # value-consumed, and their optimal values must be bit-equal to the
    # per-LP path's.  The optimiser point ``x`` may legitimately differ
    # on degenerate systems (alternative optima) — which is exactly why
    # only status- and value-consumed probe kinds are ever batched.
    reference = lp.ScipyHighsBackend()
    for system, outcome in zip(wave_bounds_systems[:20], results[:20]):
        assert isinstance(outcome, lp.LPResult)
        expected = reference.solve_raw(
            system.c, system.a_ub, system.b_ub,
            system.a_eq, system.b_eq, system.bounds,
        )
        assert outcome.value == expected.value


@pytest.fixture(scope="module")
def aa_round_margins():
    """One ``aa-highd`` round's split-margin probes: ``[n, -n]`` for
    ``m_h = 5`` candidate planes over a mid-session d=8 range."""
    d = 8
    rng = np.random.default_rng(12)
    spaces = _session_halfspaces(d, answers=10, seed=12)
    points = rng.uniform(0.05, 1.0, size=(10, d))
    normals = points[0::2] - points[1::2]
    return spaces, d, np.stack([normals, -normals], axis=1).reshape(-1, d)


def test_micro_split_margin_sequential(aa_round_margins, benchmark):
    """Ten margins, one raw HiGHS solve each (the pre-stacking path)."""
    spaces, d, normals = aa_round_margins
    a_ub, b_ub, a_eq, b_eq = lp._ambient_system(spaces, d)
    backend = lp.ScipyHighsBackend()

    def sequential():
        return np.array([
            -backend.solve_raw(-n, a_ub, b_ub, a_eq, b_eq, lp._FREE).value
            for n in normals
        ])

    margins = benchmark(sequential)
    assert margins.shape == (10,)


def test_micro_split_margin_stacked(aa_round_margins, benchmark):
    """The same ten margins through one ``ambient_split_margins`` call."""
    spaces, d, normals = aa_round_margins
    margins = benchmark(lambda: lp.ambient_split_margins(spaces, d, normals))
    assert margins.shape == (10,)


def test_micro_skyline(benchmark):
    points = anti_correlated(5_000, 4, rng=3)
    indices = benchmark(lambda: skyline_indices(points))
    assert indices.shape[0] > 0
