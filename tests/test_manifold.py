"""The manifold distance's frequency refinement: the compiled search against the Python loop it replaced, and
against the golden-section search before that."""

import math
import struct
import warnings
from functools import partial

import numpy as np
import pytest
from test_simulator import candidate_dist

from kgpoint import _passes, simulator
from kgpoint.model import ModelSpec, OscillatorSpec
from kgpoint.simulator import (
    FieldState,
    ManifoldDistance,
    _bound_metric,
    _metric,
    _metric_windows,
    _solitary_sample,
    build_grid,
    dist_to_manifold,
    perturbed_solitary_state,
    solitary_state,
)
from kgpoint.solitary import _NEWTON_STARTS, ConvergedToZero, NoConvergence, _newton_starts, solve_profile

# Brent's constants, those of the compiled search (brent in _passes_search.c): the golden-section step as a fraction
# of the larger part, the relative resolution floor, and the bracket's shrink per golden-section step
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_FRACTION = 1.0 - INVPHI
SQRT_EPS = math.sqrt(np.finfo(float).eps)

PAIR = ModelSpec(
    1.0,
    (OscillatorSpec(0.0, (0.0, -2.0, 1.0)), OscillatorSpec(0.2, (0.0, -2.0, 1.0))),
)
OMEGAS = np.linspace(0.1, 0.8, 15)


def golden_section_dist(probe, model, grid, state, omega_grid, r_max):
    """dist_to_manifold as it was before Brent's method: the same scan, then 24 golden-section steps.

    Every refinement solve starts from the best scan point's amplitudes.
    """
    omegas = [float(w) for w in omega_grid]
    outer, windows = _metric_windows(grid, r_max)
    u = (state.psi[outer], state.pi[outer])
    best = ManifoldDistance(_metric(model, grid, u, windows), float("nan"), None)

    def try_omega(w, start):
        try:
            wave = solve_profile(model, w, start)
        except (NoConvergence, ConvergedToZero):
            return None
        return candidate_dist(probe, model, grid, u, wave, outer, windows), wave

    default_guesses = [[s + 0j] * model.count for s in _NEWTON_STARTS]
    warm = None
    solved = set()
    for w in omegas:
        starts = ([warm] if warm is not None else []) + default_guesses
        hit = next(filter(None, (try_omega(w, s) for s in starts)), None)
        if hit is None:
            continue
        solved.add(w)
        warm = hit[1].amplitudes
        if hit[0] < best.dist:
            best = ManifoldDistance(hit[0], w, hit[1])
    if best.wave is not None and len(omegas) > 1:
        ordered = sorted(solved)
        idx = ordered.index(best.best_omega)
        lo = ordered[max(idx - 1, 0)]
        hi = ordered[min(idx + 1, len(ordered) - 1)]
        if hi > lo:
            invphi = (math.sqrt(5.0) - 1.0) / 2.0
            a, b = lo, hi
            amps = best.wave.amplitudes
            c, d = b - invphi * (b - a), a + invphi * (b - a)
            fc, fd = try_omega(c, amps), try_omega(d, amps)
            for _ in range(24):
                if fc is None or fd is None:
                    break
                if fc[0] < fd[0]:
                    b, d, fd = d, c, fc
                    c = b - invphi * (b - a)
                    fc = try_omega(c, amps)
                else:
                    a, c, fc = c, d, fd
                    d = a + invphi * (b - a)
                    fd = try_omega(d, amps)
            for f, w in ((fc, c), (fd, d)):
                if f is not None and f[0] < best.dist:
                    best = ManifoldDistance(f[0], w, f[1])
    return best


def reference_brent_minimize(f, a, b, x, fx, tol):
    """Brent's minimization of f over [a, b] from x, f(x) = fx, until x is within 2 tol of both ends, as the Python
    loop that the compiled search transcribes ran it; f(u) returns None to end the search."""
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return
        p = q = r = 0.0
        if abs(e) > tol1:  # the parabola through (v, fv), (w, fw), (x, fx): its vertex is x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):  # a shrinking step inside (a, b)
            d = p / q
            if (x + d) - a < tol2 or b - (x + d) < tol2:
                d = tol1 if x < m else -tol1
        else:
            e = (a if x >= m else b) - x
            d = GOLDEN_FRACTION * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu is None:
            return
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def try_solve(solve, model, omega, start):
    """solve's wave at omega from start, or None where it fails or collapses."""
    try:
        return solve(model, omega, start)
    except (NoConvergence, ConvergedToZero):
        return None


def reference_frequency_scan(model, grid, omegas, outer, solve=solve_profile):
    """The frequency scan as simulator._frequency_scan's Python loop ran it before the compiled scan: (wave, sample)
    pairs in order, each wave solved by solve, warm-started from the last solved wave and then from the shared Newton
    starts, a frequency where all fail skipped, and sampled on the outer window."""
    default_guesses = _newton_starts(model)  # for models with several branches
    scan, warm = [], None
    for w in omegas:
        starts = ([warm] if warm is not None else []) + default_guesses
        wave = next(filter(None, (try_solve(solve, model, w, s) for s in starts)), None)
        if wave is not None:
            warm = wave.amplitudes
            scan.append((wave, _solitary_sample(model, grid, wave, outer)))
    return scan


def compiled_and_reference_scans(model, grid, omega_grid, r_max):
    """The bytes of the compiled scan's rows and samples on the metric's outer window, and those of the reference's."""
    omegas = [float(w) for w in omega_grid]
    outer, _ = _metric_windows(grid, r_max)
    scan = simulator._frequency_scan(model, grid, np.array(omegas).tobytes(), (outer.start, outer.stop))
    reference = reference_frequency_scan(model, grid, omegas, outer)
    rows = [[w.omega, w.kappa, *(p for z in w.amplitudes for p in (z.real, z.imag)), w.residual_max]
            for w, _ in reference]
    return ((scan.rows.tobytes(), scan.samples.tobytes()),
            (np.array(rows, dtype=float).tobytes(), np.array([sample for _, sample in reference]).tobytes()))


def reference_dist_to_manifold(probe, model, grid, state, omega_grid, r_max, refined=None, solve=solve_profile):
    """dist_to_manifold as its Python loops ran it before the compiled scan and search: the scan, its fits, then
    Brent's refinement, each solve by solve, so that a test may pass a patched one.  The frequencies of the
    refinement's solves are appended to refined, if given."""
    omegas = [float(w) for w in omega_grid]
    outer, windows = _metric_windows(grid, r_max)
    metric = _bound_metric(model, grid, (state.psi[outer], state.pi[outer]), windows)
    best = ManifoldDistance(metric.dist(), float("nan"), None)  # the zero wave
    scan = reference_frequency_scan(model, grid, omegas, outer, solve)
    if not scan:
        raise NoConvergence(omegas[0], float("inf"))

    solved = {}  # amplitudes by frequency, the refinement's warm starts
    for wave, sample in scan:
        solved[wave.omega] = wave.amplitudes
        dist = probe.fit_dist(metric, *sample)
        if dist < best.dist:
            best = ManifoldDistance(dist, wave.omega, wave)

    ordered = sorted(solved)
    if best.wave is not None and len(ordered) > 1:
        idx = ordered.index(best.best_omega)
        lo, hi = ordered[max(idx - 1, 0)], ordered[min(idx + 1, len(ordered) - 1)]

        def refine(w):
            nonlocal best
            if refined is not None:
                refined.append(w)
            wave = try_solve(solve, model, w, solved[min(solved, key=lambda s: abs(s - w))])
            if wave is None:
                return None
            solved[w] = wave.amplitudes
            dist = probe.fit_dist(metric, *_solitary_sample(model, grid, wave, outer))
            if dist < best.dist:
                best = ManifoldDistance(dist, w, wave)
            return dist

        reference_brent_minimize(refine, lo, hi, best.best_omega, best.dist, (hi - lo) * INVPHI**24)
    return best


def benchmark_states(seed, count):
    """Perturbed solitary states drawn as the manifold_scan benchmark draws them."""
    grid = build_grid(PAIR, -50.0, 50.0, 0.02)
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        wave = solve_profile(PAIR, float(rng.uniform(0.15, 0.75)), [0.7, 0.7])
        states.append(perturbed_solitary_state(PAIR, grid, wave, float(rng.uniform(0.02, 0.2)),
                                               int(rng.integers(1, 2**31))))
    return grid, states


def assert_matches_reference(probe, grid, state, omegas):
    new = dist_to_manifold(PAIR, grid, state, omegas, 5)
    ref = golden_section_dist(probe, PAIR, grid, state, omegas, 5)
    assert new.dist <= ref.dist * (1.0 + 1e-12)
    assert abs(new.best_omega - ref.best_omega) <= 2e-6
    return new


def log_refinement_solves(monkeypatch, log):
    """Append to log the frequencies of the profile solves that each compiled search reports, in order."""
    closest = _passes.Scan.closest

    def reported(scan, metric, *args):
        result = closest(scan, metric, *args)
        log.extend(result[2])
        return result

    monkeypatch.setattr(_passes.Scan, "closest", reported)


@pytest.fixture
def solve_log(monkeypatch):
    """The frequencies of the waves each dist_to_manifold call solves, in order: the scan's solved rows where the call
    made the scan, a miss of the memo (cleared here, so that the first call makes it), then the refinement's solves,
    as the compiled search reports them."""
    simulator._frequency_scan.cache_clear()
    log, misses, closest = [], [0], _passes.Scan.closest

    def reported(scan, metric, *args):
        made = simulator._frequency_scan.cache_info().misses
        if made > misses[0]:
            misses[0] = made
            log.extend(scan.rows[:, 0].tolist())
        result = closest(scan, metric, *args)
        log.extend(result[2])
        return result

    monkeypatch.setattr(_passes.Scan, "closest", reported)
    return log


def test_refinement_matches_the_golden_section_reference(probe):
    # the benchmark's default seed; the bound sits at the noise of the reference's own readings,
    # whose solves stop anywhere below the 1e-11 residual tolerance (see CHANGES.md)
    grid, states = benchmark_states(1, 12)
    for state in states:
        assert_matches_reference(probe, grid, state, OMEGAS)


def scan_only(probe, grid, state, omegas):
    """The reference with every refinement solve failing: the best scan point."""
    def scan_solves_only(model, omega, guess):
        if omega not in omegas:
            raise NoConvergence(omega, 1.0)
        return solve_profile(model, omega, guess)

    return reference_dist_to_manifold(probe, PAIR, grid, state, omegas, 5, solve=scan_solves_only)


@pytest.mark.parametrize("omega, end", [(0.25, 0.3), (0.65, 0.6)], ids=["first", "last"])
def test_refinement_from_a_best_scan_point_at_an_end_of_the_grid(probe, omega, end):
    # a wave just outside the scanned range: the closest scanned frequency is the end nearest to it
    grid = build_grid(PAIR, -10.0, 10.0, 0.02)
    state = solitary_state(PAIR, grid, solve_profile(PAIR, omega, [0.7, 0.7]))
    omegas = np.linspace(0.3, 0.6, 7)
    scanned = scan_only(probe, grid, state, omegas)
    assert scanned.best_omega == end
    found = assert_matches_reference(probe, grid, state, omegas)
    assert abs(found.best_omega - end) <= 0.05 and found.dist <= scanned.dist


def test_a_failed_refinement_solve_ends_the_refinement(probe):
    grid, (state,) = benchmark_states(1, 1)
    scanned = scan_only(probe, grid, state, OMEGAS)
    log = []

    def failing_fourth(model, omega, guess):
        log.append(omega)
        if omega not in OMEGAS and sum(w not in OMEGAS for w in log) == 4:
            raise NoConvergence(omega, 1.0)
        return solve_profile(model, omega, guess)

    found = reference_dist_to_manifold(probe, PAIR, grid, state, OMEGAS, 5, solve=failing_fourth)
    refined = [w for w in log if w not in OMEGAS]
    assert len(refined) == 4  # nothing is solved after the failed fourth refinement solve
    assert found.dist <= scanned.dist
    assert found.best_omega in refined[:3] or found.best_omega == scanned.best_omega


THREE = ModelSpec(1.0, (OscillatorSpec(-0.3, (0.0, -2.0, 1.0)), OscillatorSpec(0.0, (0.0, -1.5, 1.0)),
                       OscillatorSpec(0.4, (0.0, -2.5, 1.0))))
EDGE = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -0.8, 1.0)),))  # its branch exists only for |omega| > 0.6
# alpha(s) = 1.33 + 4 s - 6 s^2 peaks at 1.997 = 2 kappa(0.058): no wave for |omega| < 0.058, where Newton, started
# from a wave outside that gap, can fail to converge rather than reach the zero wave
FOLD = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -0.665, -1.0, 1.0)),))


def benchmark_case(i, count=12, omegas=OMEGAS):
    grid, states = benchmark_states(1, count)
    return PAIR, grid, states[i], omegas, 5


def end_of_grid_case(omega):
    grid = build_grid(PAIR, -10.0, 10.0, 0.02)
    return PAIR, grid, solitary_state(PAIR, grid, solve_profile(PAIR, omega, [0.7, 0.7])), np.linspace(0.3, 0.6, 7), 5


def zero_case():
    grid = build_grid(PAIR, -10.0, 10.0, 0.05)
    return PAIR, grid, FieldState(np.zeros(grid.count, complex), np.zeros(grid.count, complex), 0.0), OMEGAS, 5


def clipped_case():
    # on [-4.3, 4.1] the radius 5 window exceeds the grid and holds both Dirichlet end nodes
    grid = build_grid(PAIR, -4.3, 4.1, 0.02)
    state = perturbed_solitary_state(PAIR, grid, solve_profile(PAIR, 0.4, [0.7, 0.7]), 0.1, seed=1)
    return PAIR, grid, state, OMEGAS, 5


def three_oscillator_case():
    grid = build_grid(THREE, -12.0, 12.0, 0.02)
    state = perturbed_solitary_state(THREE, grid, solve_profile(THREE, 0.45, [0.7] * 3), 0.05, seed=5)
    return THREE, grid, state, OMEGAS, 5


def collapsing_refinement_case():
    # the refinement's first solve, at 0.6076, collapses onto the zero wave and ends the refinement
    grid = build_grid(EDGE, -20.0, 20.0, 0.02)
    return EDGE, grid, solitary_state(EDGE, grid, solve_profile(EDGE, 0.6005, [0.7])), np.linspace(0.58, 0.64, 4), 5


def failing_refinement_case():
    # the scan solves -0.1 and 0.1 only; the refinement's first solve, at -0.0236 inside the gap, fails to converge
    grid = build_grid(FOLD, -20.0, 20.0, 0.05)
    return FOLD, grid, solitary_state(FOLD, grid, solve_profile(FOLD, -0.08, [1.0])), np.linspace(-0.1, 0.1, 3), 5


SEARCH_CASES = {
    **{f"benchmark-{i}": partial(benchmark_case, i) for i in range(12)},
    "first-end": lambda: end_of_grid_case(0.25),
    "last-end": lambda: end_of_grid_case(0.65),
    "one-frequency": partial(benchmark_case, 0, 1, [0.4]),
    "zero-state": zero_case,
    "clipped-window": clipped_case,
    "three-oscillators": three_oscillator_case,
    "collapsing-refinement": collapsing_refinement_case,
    "failing-refinement": failing_refinement_case,
}
# the other cases' refinements take 7 to 13 solves, so the compiled search's room for them, 4 at first, grows in each
SEARCH_REFINEMENTS = {"one-frequency": 0, "zero-state": 0, "collapsing-refinement": 1,
                      "failing-refinement": 1}  # solves, where pinned


def words(found):
    """A ManifoldDistance as the bytes of its floats: dist, best_omega and the wave's omega, kappa, amplitudes and
    residual_max."""
    wave = found.wave
    values = [found.dist, found.best_omega]
    if wave is not None:
        values += [wave.omega, wave.kappa, *(p for z in wave.amplitudes for p in (z.real, z.imag)), wave.residual_max]
    return struct.pack(f"<{len(values)}d", *values), wave is None


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_the_compiled_search_matches_the_python_loop_word_for_word(probe, monkeypatch, case):
    model, grid, state, omegas, r_max = SEARCH_CASES[case]()
    reported, refined = [], []
    log_refinement_solves(monkeypatch, reported)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the clipped window's
        found = dist_to_manifold(model, grid, state, omegas, r_max)
        expected = reference_dist_to_manifold(probe, model, grid, state, omegas, r_max, refined)
        compiled_scan, reference_scan = compiled_and_reference_scans(model, grid, omegas, r_max)
    assert compiled_scan == reference_scan  # the rows and the samples
    assert words(found) == words(expected)
    assert struct.pack(f"<{len(reported)}d", *reported) == struct.pack(f"<{len(refined)}d", *refined)
    if case in SEARCH_REFINEMENTS:
        assert len(refined) == SEARCH_REFINEMENTS[case]
    else:
        assert refined


@pytest.mark.parametrize("case, error", [("collapsing-refinement", ConvergedToZero),
                                         ("failing-refinement", NoConvergence)])
def test_the_pinned_refinements_end_on_the_solve_they_name(probe, case, error):
    # what ends each pinned one-solve refinement above: its solve from the best scan wave, the solved wave nearest to
    # it, as solve_profile makes it
    model, grid, state, omegas, r_max = SEARCH_CASES[case]()
    refined = []
    found = reference_dist_to_manifold(probe, model, grid, state, omegas, r_max, refined)
    (omega,) = refined
    with pytest.raises(error):
        solve_profile(model, omega, found.wave.amplitudes)


def test_a_one_frequency_grid_is_not_refined(probe, solve_log):
    grid, (state,) = benchmark_states(1, 1)
    found = dist_to_manifold(PAIR, grid, state, [0.4], 5)
    assert solve_log == [0.4] and found.best_omega == 0.4
    outer, windows = _metric_windows(grid, 5)
    u = (state.psi[outer], state.pi[outer])
    assert found.dist == candidate_dist(probe, PAIR, grid, u, found.wave, outer, windows)


def test_the_zero_state_is_not_refined(solve_log):
    grid = build_grid(PAIR, -10.0, 10.0, 0.05)
    zero = FieldState(np.zeros(grid.count, complex), np.zeros(grid.count, complex), 0.0)
    found = dist_to_manifold(PAIR, grid, zero, OMEGAS, 5)
    assert found.dist == 0.0 and math.isnan(found.best_omega)
    assert solve_log == list(OMEGAS)  # the scan alone, every frequency solved


# ------------------------------------------------------------ the cached frequency scan

OTHER = ModelSpec(
    1.0,
    (OscillatorSpec(0.0, (0.0, -1.5, 1.0)), OscillatorSpec(0.2, (0.0, -2.5, 1.0))),
)


def cold(model, grid, state, omegas, r_max):
    """dist_to_manifold with no scan cached: every solve of the scan made afresh."""
    simulator._frequency_scan.cache_clear()
    return dist_to_manifold(model, grid, state, omegas, r_max)


def test_warm_calls_equal_cold_calls_bit_for_bit():
    grid, states = benchmark_states(1, 12)
    expected = [cold(PAIR, grid, state, OMEGAS, 5) for state in states]
    assert [dist_to_manifold(PAIR, grid, state, OMEGAS, 5) for state in states] == expected


def test_interleaved_keys_keep_their_cold_results():
    grids = [build_grid(PAIR, -10.0, 10.0, 0.02), build_grid(PAIR, -8.0, 9.0, 0.04)]
    wave = solve_profile(PAIR, 0.45, [0.7, 0.7])
    states = [perturbed_solitary_state(PAIR, grid, wave, 0.1, seed=3) for grid in grids]
    calls = [(model, grid, state, omegas, r_max)
             for model in (PAIR, OTHER)
             for grid, state in zip(grids, states)
             for omegas in (OMEGAS, np.linspace(0.2, 0.7, 6))
             for r_max in (3, 5)]  # 16 keys, twice the cache's size
    expected = [cold(*call) for call in calls]
    order = np.random.default_rng(7).permutation(np.tile(np.arange(len(calls)), 3))
    for i in order:
        assert dist_to_manifold(*calls[i]) == expected[i]


def test_equal_models_share_one_entry_and_the_cache_stays_bounded():
    grid, (state,) = benchmark_states(1, 1)
    twin = ModelSpec(1.0, tuple(OscillatorSpec(o.position, o.coefficients) for o in PAIR.oscillators))
    assert twin is not PAIR
    expected = cold(PAIR, grid, state, OMEGAS, 5)
    assert dist_to_manifold(twin, grid, state, OMEGAS, 5) == expected
    info = simulator._frequency_scan.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # -0.0 and 0.0 are different frequency grids: the best frequency keeps the sign it was given
    at_rest = solitary_state(PAIR, grid, solve_profile(PAIR, 0.0, [0.7, 0.7]))
    for omega in (0.0, -0.0, 0.0):
        found = dist_to_manifold(PAIR, grid, at_rest, [omega], 5)
        assert math.copysign(1.0, found.best_omega) == math.copysign(1.0, omega)
    assert simulator._frequency_scan.cache_info().currsize == 3
    for k in range(10):
        dist_to_manifold(PAIR, grid, state, [0.2 + 0.05 * k], 5)
        info = simulator._frequency_scan.cache_info()
        assert info.currsize <= info.maxsize == 8
    assert info.currsize == 8


def test_the_scan_warm_starts_each_solve_from_the_last_solved_wave():
    # any other chain of starts moves candidate distances by about 1e-12 (see CHANGES.md): the reference loop's
    # chain is this one, and the compiled scan makes the reference's rows and samples word for word
    grid, _ = benchmark_states(1, 1)
    calls = []

    def logged(model, omega, guess):
        wave = solve_profile(model, omega, guess)
        calls.append((tuple(guess), wave.amplitudes))
        return wave

    reference_frequency_scan(PAIR, grid, OMEGAS, _metric_windows(grid, 5)[0], logged)
    scan = calls[:len(OMEGAS)]
    assert scan[0][0] == (_NEWTON_STARTS[0] + 0j,) * PAIR.count
    assert all(guess == previous for (guess, _), (_, previous) in zip(scan[1:], scan))
    compiled, reference = compiled_and_reference_scans(PAIR, grid, OMEGAS, 5)
    assert compiled == reference


def test_a_warm_call_solves_only_its_refinement(solve_log):
    grid, (state,) = benchmark_states(1, 1)
    first = dist_to_manifold(PAIR, grid, state, OMEGAS, 5)
    scan, refinement = solve_log[:len(OMEGAS)], solve_log[len(OMEGAS):]
    assert scan == list(OMEGAS) and refinement and not set(refinement) & set(OMEGAS)
    solve_log.clear()
    assert dist_to_manifold(PAIR, grid, state, OMEGAS, 5) == first
    assert solve_log == refinement
