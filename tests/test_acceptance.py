"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Heavy experiments live in module-scoped fixtures so several
criteria can share a single run; every evolution feeds the a priori bound
monitor checked by criterion 4.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import kgpoint as kg

QUARTIC = kg.ModelSpec(1.0, (kg.OscillatorSpec(0.0, (0.0, -2.0, 1.0)),))
PAIR = kg.ModelSpec(
    1.0,
    (kg.OscillatorSpec(0.0, (0.0, -2.0, 1.0)), kg.OscillatorSpec(0.2, (0.0, -2.0, 1.0))),
)
FREE = kg.ModelSpec(1.0, (kg.OscillatorSpec(0.0, (0.0, 0.0)),))

ATTRACTION_SEED = 1  # frozen; typical seeds give dist ratios 0.05-0.46


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@dataclass
class BoundCheck:
    name: str
    max_norm: float
    bound: float

    @property
    def ok(self) -> bool:
        # the bound is an equality for force-free runs, so allow pure roundoff
        return self.max_norm <= self.bound * (1.0 + 1e-9)


BOUND_CHECKS: list[BoundCheck] = []


def norm_series(model, series):
    """Energy norm along a run from observed H and the oscillator traces."""
    n = model.count
    pots = np.zeros_like(series.energy)
    for i in range(len(series.times)):
        pots[i] = sum(
            kg.potential(osc, series.traces_psi[i, j]) for j, osc in enumerate(model.oscillators[:n])
        )
    return np.sqrt(np.maximum(2.0 * (series.energy - pots), 0.0))


def record_bound_check(name, model, grid, initial, *series_list):
    bound = kg.apriori_bound(model, grid, initial)
    max_norm = max(float(np.max(norm_series(model, s))) for s in series_list)
    BOUND_CHECKS.append(BoundCheck(name, max_norm, bound))


def smooth_compact_data(grid, width=1.0):
    x = grid.x
    inside = np.abs(x) < width
    u = np.zeros(grid.count)
    xi = x[inside] / width
    u[inside] = np.exp(1.0 - 1.0 / (1.0 - xi**2))
    du = np.zeros(grid.count)
    du[inside] = u[inside] * (-2.0 * xi / (1.0 - xi**2) ** 2) / width
    return kg.FieldState(du.astype(complex), np.zeros(grid.count, complex), 0.0)


# ------------------------------------------------------------ shared runs


@pytest.fixture(scope="module")
def propagation_runs():
    start = time.time()
    wave = kg.solve_profile(QUARTIC, 0.5, [0.7])
    errors = {}
    for dx, dt in ((0.02, 0.009), (0.01, 0.0045)):
        grid = kg.build_grid(QUARTIC, -15.0, 15.0, dx)
        state = kg.solitary_state(QUARTIC, grid, wave)
        series, final = kg.evolve(QUARTIC, grid, state, 10.0, dt, observe_every=100)
        exact = kg.profile_eval(QUARTIC, wave, grid.x) * np.exp(-1j * wave.omega * final.t)
        exact[0] = exact[-1] = 0.0
        errors[dx] = float(np.max(np.abs(final.psi - exact)))
        record_bound_check(f"propagation dx={dx}", QUARTIC, grid, state, series)
    return {"errors": errors, "elapsed": time.time() - start}


@pytest.fixture(scope="module")
def conservation_runs():
    start = time.time()
    wave = kg.solve_profile(QUARTIC, 0.5, [0.7])
    grid = kg.build_grid(QUARTIC, -15.0, 15.0, 0.02)
    state = kg.perturbed_solitary_state(QUARTIC, grid, wave, 0.1, seed=5)
    drifts = {}
    for dt in (0.009, 0.0045):
        series, _ = kg.evolve(QUARTIC, grid, state, 100.0, dt, observe_every=50)
        scale = max(abs(series.energy[0]), 1.0)
        drifts[dt] = (
            float(np.max(np.abs(series.energy - series.energy[0]))) / scale,
            float(np.max(np.abs(series.charge - series.charge[0]))) / scale,
        )
        record_bound_check(f"conservation dt={dt}", QUARTIC, grid, state, series)
    return {"drifts": drifts, "elapsed": time.time() - start}


@pytest.fixture(scope="module")
def free_decay_run():
    start = time.time()
    grid = kg.build_grid(FREE, -50.0, 50.0, 0.05)
    state = smooth_compact_data(grid)
    initial = kg.local_seminorm(FREE, grid, state, 5.0)
    series, final = kg.evolve(FREE, grid, state, 40.0, 0.0225, observe_every=200)
    record_bound_check("free decay", FREE, grid, state, series)
    return {
        "initial": initial,
        "final": kg.local_seminorm(FREE, grid, final, 5.0),
        "elapsed": time.time() - start,
    }


def attraction_distances(dx, dt, observe_every):
    """The criterion-6 datum on the grid of spacing dx, run for 10 time units in steps of dt and then for 80 more,
    backward in time when dt < 0: the distances to the solitary manifold after 10 and after 90, and the run."""
    wave = kg.solve_profile(PAIR, 0.4, [0.7, 0.7])
    grid = kg.build_grid(PAIR, -50.0, 50.0, dx)
    state0 = kg.perturbed_solitary_state(PAIR, grid, wave, 0.1, seed=ATTRACTION_SEED)
    omegas = np.linspace(0.1, 0.8, 15)
    series1, state10 = kg.evolve(PAIR, grid, state0, 10.0, dt, observe_every=observe_every)
    d10 = kg.dist_to_manifold(PAIR, grid, state10, omegas, 5)
    series2, state90 = kg.evolve(PAIR, grid, state10, 80.0, dt, observe_every=observe_every)
    d90 = kg.dist_to_manifold(PAIR, grid, state90, omegas, 5)
    return d10, d90, (grid, state0, state10, state90, series1, series2)


def attraction_experiment(dx, dt, observe_every):
    """The criterion-6 run on the grid of spacing dx: its figures, and what the bound check reads."""
    d10, d90, (grid, state0, state10, state90, series1, series2) = attraction_distances(dx, dt, observe_every)
    trace = series2.traces_psi[:, 0]
    estimates = [
        kg.time_spectrum(trace, series2.sample_dt, t0, 20.0, trace_t0=10.0)
        for t0 in (10.0, 40.0, 70.0)
    ]
    return {"d10": d10, "d90": d90, "estimates": estimates}, (grid, state0, state10, state90, series1, series2)


@pytest.fixture(scope="module")
def attraction_run():
    start = time.time()
    figures, (grid, state0, state10, state90, series1, series2) = attraction_experiment(0.02, 0.009, 5)
    record_bound_check("attraction", PAIR, grid, state0, series1, series2)
    return {**figures, "grid": grid, "states": {"d10": state10, "d90": state90}, "elapsed": time.time() - start}


@pytest.fixture(scope="module")
def wide_gap_run():
    start = time.time()
    sol = kg.wide_gap_construct(1.0, math.pi, 2.0, -1.0)
    model = sol.to_model()
    grid = kg.build_grid(model, -35.0, sol.L + 35.0, 0.02)
    state = kg.init_from(sol, grid)
    midpoint = int(round((sol.L / 2.0 - grid.x_min) / grid.dx))
    dt = 0.45 * grid.dx
    series, _ = kg.evolve(model, grid, state, 60.0, dt, observe_every=4)
    record_bound_check("wide gap", model, grid, state, series)
    sim_x1 = series.traces_psi[:, 0].real
    # the midpoint trace at the same samples: a restart every 4 steps continues the run bit for bit
    sim_mid, restart = np.empty(len(series.times)), state
    for j in range(len(sim_mid)):
        if j:
            _, restart = kg.evolve(model, grid, restart, 4 * dt, dt, observe_every=4)
        sim_mid[j] = restart.psi[midpoint].real
    exact_x1 = kg.wide_gap_eval(sol, 0.0, series.times)[0]
    exact_mid = kg.wide_gap_eval(sol, float(grid.x[midpoint]), series.times)[0]

    def harmonic_ratio(trace):
        est = kg.time_spectrum(trace, series.sample_dt, 10.0, 40.0)
        return kg.band_mass(est, 3.0 * sol.omega) / kg.band_mass(est, sol.omega), est

    r_sim_x1, est_x1 = harmonic_ratio(sim_x1)
    r_exact_x1, _ = harmonic_ratio(exact_x1)
    r_sim_mid, est_mid = harmonic_ratio(sim_mid)
    r_exact_mid, _ = harmonic_ratio(exact_mid)
    return {
        "sol": sol,
        "trace_err": float(np.max(np.abs(sim_x1 - exact_x1))),
        "x1": (r_sim_x1, r_exact_x1, est_x1),
        "mid": (r_sim_mid, r_exact_mid, est_mid),
        "elapsed": time.time() - start,
    }


# ------------------------------------------------------------ criteria


def test_criterion_1_solitary_closed_form():
    start = time.time()
    worst_gap, worst_res = 0.0, 0.0
    for omega in (0.0, 0.3, 0.5, 0.8):
        wave = kg.solve_profile(QUARTIC, omega, [0.7])
        expected = 1.0 - math.sqrt(1.0 - omega**2) / 2.0
        worst_gap = max(worst_gap, abs(abs(wave.amplitudes[0]) ** 2 - expected))
        worst_res = max(worst_res, float(np.max(np.abs(kg.amplitude_residual(QUARTIC, wave)))))
    elapsed = time.time() - start
    ok = worst_gap <= 1e-10 and worst_res <= 1e-11 and elapsed < 1.0
    report(
        1,
        "solitary closed form",
        ok,
        f"max |C|^2 error {worst_gap:.2e} (tol 1e-10), residual {worst_res:.2e} (tol 1e-11), {elapsed:.2f}s",
    )


def test_criterion_2_exact_solution_propagation(propagation_runs):
    errors = propagation_runs["errors"]
    ratio = errors[0.02] / errors[0.01]
    ok = errors[0.02] <= 5e-3 and ratio >= 2.8 and propagation_runs["elapsed"] < 60.0
    report(
        2,
        "exact-solution propagation",
        ok,
        f"error {errors[0.02]:.2e} (tol 5e-3), refinement ratio {ratio:.2f} (>= 2.8), "
        f"{propagation_runs['elapsed']:.1f}s",
    )


def test_criterion_3_conservation_scaling(conservation_runs):
    drifts = conservation_runs["drifts"]
    energy_ratio = drifts[0.009][0] / drifts[0.0045][0]
    # kick-drift-kick preserves the bilinear charge exactly, so its drift sits
    # at the roundoff floor at every dt: strictly stronger than dt^2 scaling
    charge_floor = max(drifts[0.009][1], drifts[0.0045][1])
    charge_ok = charge_floor <= 1e-13 or drifts[0.009][1] / drifts[0.0045][1] >= 3.0
    ok = energy_ratio >= 3.0 and charge_ok and conservation_runs["elapsed"] < 300.0
    report(
        3,
        "conservation scaling",
        ok,
        f"energy drift ratio {energy_ratio:.2f} (>= 3), charge drift at exact-conservation "
        f"floor {charge_floor:.2e} (<= 1e-13), {conservation_runs['elapsed']:.1f}s",
    )


def test_criterion_4_apriori_bound(propagation_runs, conservation_runs, free_decay_run, attraction_run, wide_gap_run):
    violations = [c for c in BOUND_CHECKS if not c.ok]
    detail = "; ".join(f"{c.name}: norm {c.max_norm:.4f} <= bound {c.bound:.4f}" for c in BOUND_CHECKS)
    report(4, "a priori bound", len(BOUND_CHECKS) >= 5 and not violations, detail)


def test_criterion_5_free_field_local_energy_decay(free_decay_run):
    ratio = free_decay_run["final"] / free_decay_run["initial"]
    ok = ratio <= 0.1 and free_decay_run["elapsed"] < 120.0
    report(
        5,
        "free-field local energy decay",
        ok,
        f"seminorm ratio at t=40: {ratio:.4f} (tol 0.1), {free_decay_run['elapsed']:.1f}s",
    )


def test_criterion_6_attraction_property(attraction_run):
    ests = attraction_run["estimates"]
    ratios = [e.band_mass_ratio for e in ests]
    monotone = all(b <= a * 1.05 for a, b in zip(ratios, ratios[1:]))
    in_band = kg.in_band_check(ests[-1], 1.0)
    dist_ratio = attraction_run["d90"].dist / attraction_run["d10"].dist
    ok = monotone and in_band and dist_ratio <= 0.5 and attraction_run["elapsed"] < 600.0
    report(
        6,
        "attraction to the solitary manifold",
        ok,
        f"band ratios {[f'{r:.2e}' for r in ratios]} (5% slack), dominant {ests[-1].dominant:.4f} "
        f"in band: {in_band}, dist ratio {dist_ratio:.3f} (<= 0.5), {attraction_run['elapsed']:.1f}s",
    )


def test_criterion_7_wide_gap_counterexample(wide_gap_run):
    sol = wide_gap_run["sol"]
    verification = kg.verify_exact(sol)
    r_sim, r_exact, est_x1 = wide_gap_run["x1"]
    # at X_1 the interior harmonic vanishes identically (sin(k3 X_1) = 0), so
    # both ratios sit at the window leakage floor; the factor-2 comparison
    # still pins the simulated trace to the exact two-frequency solution
    factor_x1 = r_sim / r_exact
    r_sim_mid, r_exact_mid, est_mid = wide_gap_run["mid"]
    factor_mid = r_sim_mid / r_exact_mid
    two_freq_alive = est_mid.band_mass_ratio > 0.1 and est_x1.band_mass_ratio > 0.1
    ok = (
        verification.max_jump_residual <= 1e-10
        and 0.5 <= factor_x1 <= 2.0
        and 0.5 <= factor_mid <= 2.0
        and two_freq_alive
        and wide_gap_run["elapsed"] < 600.0
    )
    report(
        7,
        "wide-gap counterexample",
        ok,
        f"jump residual {verification.max_jump_residual:.2e} (tol 1e-10), X1 harmonic-ratio factor "
        f"{factor_x1:.2f}, midpoint factor {factor_mid:.2f} (within 2.0), midpoint harmonic ratio "
        f"{r_sim_mid:.3f}, band_mass_ratio {est_x1.band_mass_ratio:.3f} > 0.1, trace err "
        f"{wide_gap_run['trace_err']:.1e}, {wide_gap_run['elapsed']:.1f}s",
    )


def test_criterion_8_linear_degeneration_counterexample():
    start = time.time()
    sol = kg.linear_deg_construct(1.0, 1.0, 0.3, 0.0, 10.0)
    rep = kg.verify_exact(sol)
    eq_worst = max(abs(v) for v in rep.equation_residuals.values())
    gap = max(rep.continuity_gap.values())
    elapsed = time.time() - start
    ok = eq_worst <= 1e-12 and rep.max_jump_residual <= 1e-10 and gap <= 1e-6 and elapsed < 1.0
    report(
        8,
        "linear-degeneration counterexample",
        ok,
        f"coefficient equations {eq_worst:.2e} (tol 1e-12), jump residual "
        f"{rep.max_jump_residual:.2e} (tol 1e-10), continuity gap {gap:.2e} (tol 1e-6), {elapsed:.2f}s",
    )


def test_criterion_9_assumption_arithmetic():
    start = time.time()
    model = kg.ModelSpec(
        1.0,
        (
            kg.OscillatorSpec(0.0, (0, 0, 1)),
            kg.OscillatorSpec(1.0, (0, 0, 0, 1)),
            kg.OscillatorSpec(2.0, (0, 0, 1)),
        ),
    )
    bounds = kg.derived_bounds(model)
    wide = kg.ModelSpec(1.0, (kg.OscillatorSpec(0.0, (0, -2, 1)), kg.OscillatorSpec(math.pi, (0, -2, 1))))
    close = kg.ModelSpec(1.0, (kg.OscillatorSpec(0.0, (0, -2, 1)), kg.OscillatorSpec(0.2, (0, -2, 1))))
    elapsed = time.time() - start
    ok = (
        bounds.spread_limit == 15.0
        and bounds.mu == (1.0, 3.0, 15.0)
        and not kg.check_assumptions(wide).a3
        and kg.check_assumptions(close).a3
        and elapsed < 1.0
    )
    report(
        9,
        "assumption arithmetic",
        ok,
        f"spread limit {bounds.spread_limit} (= 15), wide-gap a3 False, close-gap a3 True, {elapsed:.2f}s",
    )


def test_criterion_10_discrete_titchmarsh_oracle():
    start = time.time()
    rng = np.random.default_rng(1234)
    failures = 0
    for _ in range(200):
        def generic(size):
            radii = rng.uniform(0.1, 1.0, size=size)
            angles = rng.uniform(0.0, 2.0 * np.pi, size=size)
            arr = np.zeros(rng.integers(0, 4) + size, dtype=complex)
            arr[-size:] = radii * np.exp(1j * angles)
            return arr

        f = generic(int(rng.integers(1, 9)))
        g = generic(int(rng.integers(1, 9)))
        if not kg.titchmarsh_check(f, g):
            failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 1.0
    report(10, "discrete convolution-support oracle", ok, f"{failures} failures in 200 pairs, {elapsed:.2f}s")


def test_criterion_11_gradient_consistency_of_forces():
    start = time.time()
    rng = np.random.default_rng(77)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        coeffs = tuple(rng.uniform(-3, 3, size=rng.integers(2, 6)))
        osc = kg.OscillatorSpec(0.0, coeffs)
        psi = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        gx = (kg.potential(osc, psi + h) - kg.potential(osc, psi - h)) / (2 * h)
        gy = (kg.potential(osc, psi + 1j * h) - kg.potential(osc, psi - 1j * h)) / (2 * h)
        f = kg.force(osc, psi)
        worst = max(worst, abs(f + complex(gx, gy)) / max(1.0, abs(f)))
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 2.0
    report(11, "gradient consistency of forces", ok, f"max relative error {worst:.2e} (tol 1e-6), {elapsed:.2f}s")


# ------------------------------------------------------------ refinement


def test_manifold_refinement_solves_on_the_criterion_6_datum(attraction_run, monkeypatch):
    # the frequency scan is 15 solves; the golden-section refinement added 26 more.  Each call below finds the run's
    # scan in the memo, so the solves it makes are the refinement's, which the compiled search reports
    from kgpoint import _passes, simulator

    solves, refinements, closest = [], [], _passes.Scan.closest

    def reported(scan, *args):
        result = closest(scan, *args)
        solves.extend(result[2])
        refinements.append(len(result[2]))
        return result

    monkeypatch.setattr(_passes.Scan, "closest", reported)
    for key, state in attraction_run["states"].items():
        solves.clear()
        hits = simulator._frequency_scan.cache_info().hits
        again = kg.dist_to_manifold(PAIR, attraction_run["grid"], state, np.linspace(0.1, 0.8, 15), 5)
        assert simulator._frequency_scan.cache_info().hits == hits + 1  # no scan solved
        print(f"\n[refinement] {key}: {len(solves)} profile solves (<= 28)")
        assert again == attraction_run[key] and len(solves) <= 28
        assert refinements.pop() > 0  # the compiled refinement's solves are among those counted


def test_attraction_figures_converge_under_refinement(attraction_run):
    # the criterion-6 run again at half the dx and dt, sampled every 0.045 like the coarse run
    start = time.time()
    fine, _ = attraction_experiment(0.01, 0.0045, 10)
    pairs = list(zip(attraction_run["estimates"], fine["estimates"]))
    freq_gap = max(abs(f.dominant - c.dominant) / abs(c.dominant) for c, f in pairs)
    band_gap = max(abs(f.band_mass_ratio - c.band_mass_ratio) / c.band_mass_ratio for c, f in pairs)
    r_coarse, r_fine = (run["d90"].dist / run["d10"].dist for run in (attraction_run, fine))
    print(
        f"\n[refinement] dx 0.02 -> 0.01: dominant frequencies agree to {freq_gap:.1e} (tol 1e-5), "
        f"band ratios to {band_gap:.1e} (tol 1e-4); dist ratio {r_coarse:.3f} -> {r_fine:.3f}, "
        f"first-order Richardson estimate 2 r(0.01) - r(0.02) = {2.0 * r_fine - r_coarse:.3f}, "
        f"{time.time() - start:.1f}s"
    )
    assert freq_gap <= 1e-5 and band_gap <= 1e-4


def test_attraction_holds_backward_in_time():
    # the flow is reversible, and the attraction of the paper holds as t -> -infinity too: the criterion-6 datum
    # run backward to t = -90.  attraction_experiment's spectral windows assume forward time, so only the
    # distances are checked
    start = time.time()
    d10, d90, _ = attraction_distances(0.02, -0.009, 5)
    ratio = d90.dist / d10.dist
    print(f"\n[backward] dist ratio d(-90)/d(-10) {ratio:.3f} (<= 0.5), {time.time() - start:.1f}s")
    assert ratio <= 0.5
