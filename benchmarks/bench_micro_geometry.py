"""Micro-benchmarks of the geometric primitives.

Not a paper figure.  These time the building blocks that dominate the
algorithms' execution time, so performance regressions in the substrate
are caught independently of end-to-end session times:

* from-scratch vertex enumeration of an exact range,
* Chebyshev centre LP (every exact-range operation),
* one raw LP solve through ``linprog`` vs the direct HiGHS call
  ``repro.geometry.lp`` makes (the per-call wrapper overhead),
* hit-and-run sampling (EA's anchor discovery),
* minimum enclosing sphere (EA's state encoding),
* ambient inner sphere + bounds (AA: once per round),
* AA's split-margin probes, one LP at a time vs one stacked call vs
  the range's witness certificates,
* one AA candidate round (pool, ranking and split-margin scan) on a
  mid-session d=8 range,
* a 64-system bounds stack through one ``lp.solve_stacked`` call (the
  HiGHS model hand-off),
* AA's outer-rectangle refresh one answer after a ``bounds()`` call:
  re-solving only the probes the answer cuts vs all ``2d``,
* incremental range clipping vs from-scratch re-enumeration (the
  :class:`~repro.geometry.range.ExactRange` fast path),
* skyline preprocessing (dataset construction).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

import _common as C
from repro.core.aa import AAConfig, AAEnvironment
from repro.data import synthetic_dataset
from repro.data.skyline import skyline_indices
from repro.data.synthetic import anti_correlated
from repro.geometry import lp
from repro.errors import EmptyRegionError
from repro.geometry.hyperplane import PreferenceHalfspace, preference_halfspace
from repro.geometry.range import SPLIT_TOL, AmbientRange, ExactRange
from repro.geometry.sphere import minimum_enclosing_sphere
from repro.utils import rng as rng_state


def _feasible(d: int, halfspaces: list) -> bool:
    """Whether ``halfspaces`` leave a non-empty range (one Chebyshev LP)."""
    try:
        ExactRange.from_halfspaces(d, halfspaces)
    except EmptyRegionError:
        return False
    return True


def _narrowed_range(d: int, answers: int, seed: int = 0) -> ExactRange:
    """A realistic mid-session utility range."""
    rng = np.random.default_rng(seed)
    spaces: list[PreferenceHalfspace] = []
    for _ in range(answers):
        a, b = rng.uniform(0.05, 1.0, size=(2, d))
        if np.allclose(a, b):
            continue
        halfspace = preference_halfspace(a, b)
        if _feasible(d, spaces + [halfspace]):
            spaces.append(halfspace)
    return ExactRange.from_halfspaces(d, spaces)


@pytest.fixture(scope="module")
def mid_session_range():
    return _narrowed_range(4, answers=6)


def test_micro_vertex_enumeration(mid_session_range, benchmark):
    urange = mid_session_range

    def enumerate_vertices():
        # Rebuild to bypass the instance cache; this is the real per-round
        # cost an algorithm pays.
        fresh = ExactRange.from_halfspaces(4, urange.halfspaces)
        return fresh.vertices()

    vertices = benchmark(enumerate_vertices)
    assert vertices.shape[1] == 4


def test_micro_chebyshev_center(mid_session_range, benchmark):
    urange = mid_session_range

    def chebyshev():
        fresh = ExactRange.from_halfspaces(4, urange.halfspaces)
        return fresh.chebyshev_center()

    center, radius = benchmark(chebyshev)
    assert radius >= 0


@pytest.fixture(scope="module")
def chebyshev_system(mid_session_range):
    """The mid-session range's Chebyshev LP, as ``chebyshev_center``
    builds it: ``max r`` over ``(x, r)`` with ``A x + ||A_i|| r <= b``."""
    state = mid_session_range.get_state()
    a, b = state["a"], state["b"]
    a_ext = np.hstack([a, np.linalg.norm(a, axis=1)[:, None]])
    c = np.zeros(a.shape[1] + 1)
    c[-1] = -1.0
    bounds = np.tile([-np.inf, np.inf], (a.shape[1] + 1, 1))
    bounds[-1, 0] = 0.0
    return lp.LPSystem(c, a_ext, b, bounds=bounds)


def _linprog(system):
    """``linprog(method="highs")`` of ``system`` (no equality rows)."""
    return linprog(
        system.c, A_ub=system.a_ub, b_ub=system.b_ub, bounds=system.bounds,
        method="highs",
    )


def test_micro_lp_solve_raw_linprog(chebyshev_system, benchmark):
    """One raw Chebyshev solve through ``scipy.optimize.linprog``."""
    result = benchmark(lambda: _linprog(chebyshev_system))
    assert result.status == 0


def test_micro_lp_solve_raw_direct(chebyshev_system, benchmark):
    """The same solve through the direct HiGHS call; byte-equal ``x``."""
    result = benchmark(lambda: lp.solve_raw(chebyshev_system))
    reference = _linprog(chebyshev_system)
    assert result.x.tobytes() == reference.x.tobytes()


@pytest.mark.parametrize("d", [3, 4, 5])
def test_micro_hit_and_run(benchmark, d):
    """64 draws (64 chains of 55 steps) from a mid-session range; d=3 is
    the ladder's EA workload."""
    urange = _narrowed_range(d, answers=6)
    samples = benchmark(lambda: urange.sample(64, rng=0))
    assert samples.shape == (64, d)


def test_micro_enclosing_sphere(mid_session_range, benchmark):
    vertices = mid_session_range.vertices()
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
    e_min, e_max, _ = benchmark(lambda: lp.ambient_bounds(spaces, d))
    assert np.all(e_max >= e_min - 1e-9)


def _session_halfspaces(d: int, answers: int, seed: int = 0) -> list:
    """A feasible mid-session answer sequence (shared by both range benches)."""
    rng = np.random.default_rng(seed)
    spaces: list[PreferenceHalfspace] = []
    for _ in range(answers * 6):
        if len(spaces) >= answers:
            break
        a, b = rng.uniform(0.05, 1.0, size=(2, d))
        if np.allclose(a, b):
            continue
        halfspace = preference_halfspace(a, b)
        if _feasible(d, spaces + [halfspace]):
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
    """The pre-refactor baseline: re-enumerate vertices from scratch each
    round (one emptiness LP and one full enumeration per answer)."""
    spaces = _session_halfspaces(d, answers=8, seed=4)

    def rebuild_session():
        for count in range(1, len(spaces) + 1):
            fresh = ExactRange.from_halfspaces(d, spaces[:count])
            fresh.vertices()
        return fresh

    fresh = benchmark(rebuild_session)
    assert fresh.vertices().shape[1] == d


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

    def sequential():
        return [lp.solve_raw(s) for s in wave_bounds_systems]

    results = benchmark.pedantic(sequential, rounds=2, iterations=1)
    assert len(results) == len(wave_bounds_systems)


def test_micro_bounds_batched(wave_bounds_systems, benchmark):
    """Block-diagonal stacking via ``lp.solve_stacked``."""

    def batched():
        return lp.solve_stacked(wave_bounds_systems)

    results = benchmark.pedantic(batched, rounds=2, iterations=1)
    assert len(results) == len(wave_bounds_systems)
    # The stacked objective must decompose exactly: bound probes are
    # value-consumed, and their optimal values must be bit-equal to the
    # per-LP path's.  The optimiser point ``x`` may legitimately differ
    # on degenerate systems (alternative optima) — which is exactly why
    # only status- and value-consumed probe kinds are ever batched.
    for system, outcome in zip(wave_bounds_systems[:20], results[:20]):
        assert isinstance(outcome, lp.LPResult)
        assert outcome.value == lp.solve_raw(system).value


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
    base = lp.ambient_feasibility_system(spaces, d)

    def sequential():
        return np.array([
            -lp.solve_raw(dataclasses.replace(base, c=-n)).value
            for n in normals
        ])

    margins = benchmark(sequential)
    assert margins.shape == (10,)


def test_micro_split_margin_stacked(aa_round_margins, benchmark):
    """The same ten margins through one ``ambient_split_margins`` call."""
    spaces, d, normals = aa_round_margins
    margins = benchmark(lambda: lp.ambient_split_margins(spaces, d, normals))
    assert margins.shape == (10,)


def test_micro_split_margin_certified(aa_round_margins, benchmark):
    """The same ten margins through ``AmbientRange.split_margin`` once the
    round's ``bounds()``/``inner_sphere()`` have filled its witness set:
    the rows a witness certifies cost one matmul, not an LP.  This
    fixture's planes are random, not centre-near: their five positive
    sides are certified, and the five negative sides miss ``R``, so those
    still go to one stacked LP call."""
    spaces, d, normals = aa_round_margins
    urange = AmbientRange(d)
    for halfspace in spaces:
        urange.update(halfspace)
    urange.inner_sphere()
    urange.bounds()
    margins = benchmark(lambda: urange.split_margin(normals))
    assert margins.shape == (10,)
    expected = lp.ambient_split_margins(list(urange.halfspaces), d, normals)
    assert np.array_equal(margins > SPLIT_TOL, expected > SPLIT_TOL)


def test_micro_bounds_stack_64(benchmark):
    """64 bounds probes (four d=8 ranges, ``2d`` each) in one
    ``lp.solve_stacked`` call: one HiGHS model hand-off."""
    systems = _stacked_bounds_systems(sessions=4, d=8, answers=10)
    assert len(systems) == 64
    results = benchmark(lambda: lp.solve_stacked(systems))
    assert all(isinstance(outcome, lp.LPResult) for outcome in results)


@pytest.mark.parametrize("probes", ["reuse", "full"])
def test_micro_aa_bounds_refresh(probes, benchmark):
    """``AmbientRange.bounds()`` on a d=8 range one answer after its last
    call: ``reuse`` starts from that call's probes and re-solves only
    those the answer cuts, ``full`` starts from none and solves all
    ``2d`` (the same code with every probe stale).  The answer's plane
    passes through the inner-sphere centre, as AA's questions do."""
    d = 8
    urange = AmbientRange(d)
    for halfspace in _session_halfspaces(d, answers=10, seed=12):
        urange.update(halfspace)
    reference = lp.ambient_bounds(list(urange.halfspaces), d)
    center, _ = urange.inner_sphere()
    urange.bounds()
    last = urange._bound_probes if probes == "reuse" else None
    normal = np.random.default_rng(13).uniform(-1.0, 1.0, d)
    normal -= (normal @ center) / (center @ center) * center
    assert urange.update(PreferenceHalfspace(normal))
    urange._bound_probes = last
    stale = urange._stale_probes(list(urange.halfspaces))
    if probes == "reuse":
        assert 0 < stale.sum() < 2 * d
    else:
        assert stale.all()

    def refresh():
        urange._bound_probes = last
        return urange.bounds()

    e_min, e_max = benchmark(refresh)
    fresh_min, fresh_max, _ = lp.ambient_bounds(list(urange.halfspaces), d)
    np.testing.assert_allclose(e_min, fresh_min, rtol=0, atol=1e-12)
    np.testing.assert_allclose(e_max, fresh_max, rtol=0, atol=1e-12)
    # The answer narrowed the rectangle.
    assert np.all(e_min >= reference[0] - 1e-12)
    assert np.all(e_max <= reference[1] + 1e-12)


def test_micro_aa_candidate_round(benchmark):
    """One AA candidate round eight answers into a d=8 session: the pair
    pool, its ranking by plane distance and the split-margin scan, from
    the same generator state on every call."""
    dataset = synthetic_dataset("anti", 2000, 8, rng=8)
    env = AAEnvironment(dataset, AAConfig(epsilon=0.1), rng=0)
    utility = np.random.default_rng(8).dirichlet(np.ones(8))
    obs = env.reset()
    for _ in range(8):
        # The pool's draws are the only use of the generator in a step.
        state = rng_state.get_state(env._rng)
        i, j = obs.pairs[0]
        prefers = utility @ dataset.points[i] >= utility @ dataset.points[j]
        obs, _ = env.step(0, bool(prefers))
    assert not obs.terminal
    center = env._state[:8]

    def round_():
        rng_state.set_state(env._rng, state)
        return env._candidate_pairs(center)

    pairs = benchmark(round_)
    assert pairs == obs.pairs


def test_micro_skyline(benchmark):
    points = anti_correlated(5_000, 4, rng=3)
    indices = benchmark(lambda: skyline_indices(points))
    assert indices.shape[0] > 0
