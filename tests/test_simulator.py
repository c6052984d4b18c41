import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpoint.counterexamples import init_from, wide_gap_construct
from kgpoint.model import ModelSpec, OscillatorSpec, force, potential
from kgpoint.simulator import (
    FieldState,
    NoCommensurateGrid,
    _candidate_dist,
    _metric_windows,
    apriori_bound,
    build_grid,
    charge,
    dist_to_manifold,
    energy_norm,
    evolve,
    hamiltonian,
    local_seminorm,
    metric_dist,
    perturbed_solitary_state,
    solitary_state,
    step,
)
from kgpoint.solitary import NoConvergence, profile_eval, solve_profile

QUARTIC = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -2.0, 1.0)),))
PAIR = ModelSpec(
    1.0,
    (OscillatorSpec(0.0, (0.0, -2.0, 1.0)), OscillatorSpec(0.2, (0.0, -2.0, 1.0))),
)


TRIPLE = ModelSpec(
    1.0,
    (OscillatorSpec(-0.3, (0.0, -2.0, 1.0)), OscillatorSpec(0.2, (0.0, -1.0, 0.0, 0.5)),
     OscillatorSpec(0.5, (0.1, -2.0, 1.0))),
)


def free_model(positions=(0.0,)):
    """Zero-coefficient oscillators: the free Klein-Gordon field."""
    return ModelSpec(1.0, tuple(OscillatorSpec(p, (0.0, 0.0)) for p in positions))


def reference_kdk(model, grid, state, dt, n_steps):
    """Out-of-place transcription of the in-place stepping loop's arithmetic, its reference bit for bit.

    The mass term sits in the stencil diagonal c = 2 + m^2 dx^2 and the half
    kick dt/2 acc is formed as one scaled stencil plus F_J dt/(2 dx).
    """
    c, scale, force_scale = 2.0 + model.mass**2 * grid.dx**2, 0.5 * dt / grid.dx**2, 0.5 * dt / grid.dx

    def half_kick(psi):
        kick = np.zeros_like(psi)
        kick[1:-1] = ((psi[2:] - c * psi[1:-1]) + psi[:-2]) * scale
        for osc, i in zip(model.oscillators, grid.oscillator_nodes):
            kick[i] += force(osc, psi[i]) * force_scale
        return kick

    psi, pi = state.psi.copy(), state.pi.copy()
    kick = half_kick(psi)
    for _ in range(n_steps):
        pi = pi + kick
        psi = psi + dt * pi
        kick = half_kick(psi)
        pi = pi + kick
    return psi, pi


def textbook_kdk(model, grid, state, dt, n_steps):
    """Out-of-place kick-drift-kick in the textbook form: acceleration, then half steps of dt/2 acc."""

    def acceleration(psi):
        acc = np.zeros_like(psi)
        acc[1:-1] = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) * (1.0 / grid.dx**2)
        acc -= model.mass**2 * psi
        for osc, i in zip(model.oscillators, grid.oscillator_nodes):
            acc[i] += force(osc, psi[i]) / grid.dx
        acc[0] = acc[-1] = 0.0
        return acc

    psi, pi = state.psi.copy(), state.pi.copy()
    acc = acceleration(psi)
    for _ in range(n_steps):
        pi_half = pi + 0.5 * dt * acc
        psi = psi + dt * pi_half
        acc = acceleration(psi)
        pi = pi_half + 0.5 * dt * acc
    return psi, pi


def gaussian_data(grid, amplitude, center, width, omega):
    """psi a Gaussian bump, pi = -i omega psi: charge omega |psi|^2 > 0, smooth on the grid."""
    psi = amplitude * np.exp(-((grid.x - center) ** 2) / (2.0 * width**2))
    psi[0] = psi[-1] = 0.0
    return FieldState(psi, -1j * omega * psi, 0.0)


def mask_seminorm(model, grid, state, R):
    """Seminorm over [-R, R] from boolean node and cell masks: the reference for Grid.window."""
    nodes = np.abs(grid.x) <= R
    cells = nodes[:-1] & nodes[1:]
    total = grid.dx * np.sum(np.abs(state.pi[nodes]) ** 2 + model.mass**2 * np.abs(state.psi[nodes]) ** 2)
    total += np.sum(np.abs(np.diff(state.psi)[cells]) ** 2) / grid.dx
    return math.sqrt(total)


def smooth_compact_data(grid, width=1.0):
    """Derivative of a bump supported in [-width, width]; mean-zero and smooth."""
    x = grid.x
    inside = np.abs(x) < width
    u = np.zeros(grid.count)
    xi = x[inside] / width
    u[inside] = np.exp(1.0 - 1.0 / (1.0 - xi**2))
    du = np.zeros(grid.count)
    du[inside] = u[inside] * (-2.0 * xi / (1.0 - xi**2) ** 2) / width
    return FieldState(du.astype(complex), np.zeros(grid.count, complex), 0.0)


# ---------------------------------------------------------------- build_grid


def test_build_grid_single_oscillator():
    grid = build_grid(QUARTIC, -10.0, 10.0, 0.01)
    assert grid.dx == 0.01
    assert grid.oscillator_nodes == (1000,)
    assert grid.x[1000] == pytest.approx(0.0, abs=1e-14)
    assert grid.x_min <= -10.0 and grid.x_max >= 10.0
    assert grid.x_min < 0.0 < grid.x_max


def test_build_grid_divides_gaps():
    model = PAIR
    grid = build_grid(model, -3.0, 3.0, 0.03)
    assert grid.dx <= 0.03
    steps = grid.oscillator_nodes[1] - grid.oscillator_nodes[0]
    assert steps * grid.dx == pytest.approx(0.2, abs=1e-13)
    i, j = grid.oscillator_nodes
    assert grid.x[i] == pytest.approx(0.0, abs=1e-13)
    assert grid.x[j] == pytest.approx(0.2, abs=1e-13)


def test_build_grid_irrational_gap_anchored():
    model = ModelSpec(1.0, (OscillatorSpec(0.0, (0, -2, 1)), OscillatorSpec(np.pi, (0, -2, 1))))
    grid = build_grid(model, -2.0, 5.0, 0.01)
    assert grid.dx <= 0.01
    steps = grid.oscillator_nodes[1] - grid.oscillator_nodes[0]
    assert steps * grid.dx == pytest.approx(np.pi, abs=1e-12)


def test_build_grid_incommensurate_raises():
    model = ModelSpec(
        1.0,
        (
            OscillatorSpec(0.0, (0, -2, 1)),
            OscillatorSpec(1.0, (0, -2, 1)),
            OscillatorSpec(1.0 + np.pi, (0, -2, 1)),
        ),
    )
    with pytest.raises(NoCommensurateGrid):
        build_grid(model, -2.0, 6.0, 0.01)


def test_build_grid_domain_validation():
    with pytest.raises(ValueError):
        build_grid(QUARTIC, 0.0, 10.0, 0.01)


# ---------------------------------------------------------------- stepping


def test_step_zero_state_fixed_point():
    grid = build_grid(QUARTIC, -5.0, 5.0, 0.05)
    zero = FieldState(np.zeros(grid.count, complex), np.zeros(grid.count, complex), 0.0)
    out = step(QUARTIC, grid, zero, 0.02)
    assert np.all(out.psi == 0.0) and np.all(out.pi == 0.0)
    assert out.t == 0.02


def test_step_cfl_guard():
    grid = build_grid(QUARTIC, -5.0, 5.0, 0.05)
    zero = FieldState(np.zeros(grid.count, complex), np.zeros(grid.count, complex), 0.0)
    with pytest.raises(ValueError):
        step(QUARTIC, grid, zero, 0.05)


def test_step_rejects_mismatched_state():
    grid = build_grid(QUARTIC, -5.0, 5.0, 0.05)
    short = FieldState(np.zeros(7, complex), np.zeros(7, complex), 0.0)
    with pytest.raises(ValueError):
        step(QUARTIC, grid, short, 0.02)


@pytest.mark.parametrize("name, end", [("psi", 0), ("pi", -1)])
def test_nonzero_dirichlet_end_node_is_rejected(name, end):
    grid = build_grid(QUARTIC, -5.0, 5.0, 0.05)
    fields = {"psi": np.zeros(grid.count, complex), "pi": np.zeros(grid.count, complex)}
    fields[name][end] = 0.3
    state = FieldState(fields["psi"], fields["pi"], 0.0)
    node = f"end node {end % grid.count} "
    with pytest.raises(ValueError, match=node):
        step(QUARTIC, grid, state, 0.02)
    with pytest.raises(ValueError, match=node):
        evolve(QUARTIC, grid, state, 1.0, 0.02)


@pytest.mark.parametrize("functional", [hamiltonian, charge, energy_norm, apriori_bound])
def test_whole_grid_functionals_refuse_nonzero_walls(functional):
    # plain node sums are the trapezoid rule only for states that are 0 at the Dirichlet end nodes
    grid = build_grid(QUARTIC, -5.0, 5.0, 0.05)
    for name, end in (("psi", 0), ("pi", -1)):
        fields = {"psi": np.zeros(grid.count, complex), "pi": np.zeros(grid.count, complex)}
        fields[name][end] = 0.3
        state = FieldState(fields["psi"], fields["pi"], 0.0)
        with pytest.raises(ValueError, match=f"Dirichlet end node {end % grid.count} must be 0"):
            functional(QUARTIC, grid, state)


def test_non_finite_field_aborts_with_diagnostic():
    # a huge nodal value overflows the cubic force and must be caught, not looped on
    grid = build_grid(QUARTIC, -5.0, 5.0, 0.05)
    psi = np.zeros(grid.count, complex)
    psi[grid.oscillator_nodes[0]] = 1e200
    state = FieldState(psi, np.zeros(grid.count, complex), 0.0)
    with pytest.raises(FloatingPointError, match="t="):
        evolve(QUARTIC, grid, state, 1.0, 0.02, observe_every=1)


def _solitary_error(dx, dt, T=10.0):
    wave = solve_profile(QUARTIC, 0.5, [0.7])
    grid = build_grid(QUARTIC, -15.0, 15.0, dx)
    state = solitary_state(QUARTIC, grid, wave)
    _, final = evolve(QUARTIC, grid, state, T, dt, observe_every=10**9)
    exact = profile_eval(QUARTIC, wave, grid.x) * np.exp(-1j * wave.omega * final.t)
    exact[0] = exact[-1] = 0.0
    return float(np.max(np.abs(final.psi - exact)))


def test_exact_solitary_propagation_and_refinement():
    err = _solitary_error(0.02, 0.01)
    err_half = _solitary_error(0.01, 0.005)
    assert err <= 5e-3
    assert err / err_half >= 3.0


def test_free_field_grid_refinement_self_oracle():
    # dt = dx/2 keeps all runs ending at exactly the same time
    model = free_model()
    errors = {}
    reference = None
    for dx in (0.01, 0.04, 0.02):
        grid = build_grid(model, -14.0, 14.0, dx)
        state = smooth_compact_data(grid, width=4.0)
        _, final = evolve(model, grid, state, 5.0, dx / 2, observe_every=10**9)
        key = np.round(grid.x / 0.04).astype(int)
        on_coarse = np.abs(grid.x / 0.04 - key) < 1e-9
        values = dict(zip(key[on_coarse], final.psi[on_coarse]))
        if dx == 0.01:
            reference = values
        else:
            err = max(abs(v - reference[k]) for k, v in values.items() if k in reference)
            errors[dx] = err
    assert errors[0.04] / errors[0.02] >= 3.5


# ---------------------------------------------------------------- functionals


def test_hamiltonian_zero_state():
    grid = build_grid(QUARTIC, -5.0, 5.0, 0.05)
    zero = FieldState(np.zeros(grid.count, complex), np.zeros(grid.count, complex), 0.0)
    assert hamiltonian(QUARTIC, grid, zero) == 0.0


def test_hamiltonian_momentum_bump():
    model = free_model()
    grid = build_grid(model, -2.0, 2.0, 0.002)
    pi = np.where(np.abs(grid.x) <= 0.5, 1.0, 0.0).astype(complex)
    state = FieldState(np.zeros(grid.count, complex), pi, 0.0)
    assert hamiltonian(model, grid, state) == pytest.approx(0.5, abs=2e-3)


def solitary_energy_closed_form(omega):
    # N=1 quartic: phi = C e^{-k|x|}, integrals of exponentials in closed form
    kap = math.sqrt(1.0 - omega**2)
    amp_sq = 1.0 - kap / 2.0
    field = 0.5 * amp_sq * ((omega**2 + 1.0) / kap + kap)
    pot = amp_sq**2 - 2.0 * amp_sq
    return field + pot


def test_hamiltonian_solitary_closed_form():
    wave = solve_profile(QUARTIC, 0.5, [0.7])
    exact = solitary_energy_closed_form(0.5)
    errs = []
    for dx in (0.02, 0.01):
        grid = build_grid(QUARTIC, -25.0, 25.0, dx)
        state = solitary_state(QUARTIC, grid, wave)
        errs.append(abs(hamiltonian(QUARTIC, grid, state) - exact))
    assert errs[0] <= 1e-3
    assert errs[0] / errs[1] >= 3.0  # O(dx^2)


def test_charge_examples():
    grid = build_grid(QUARTIC, -20.0, 20.0, 0.01)
    psi, pi = np.exp(-grid.x**2).astype(complex), np.cos(grid.x).astype(complex)
    psi[0] = psi[-1] = pi[0] = pi[-1] = 0.0  # the Dirichlet end nodes
    real_state = FieldState(psi, pi, 0.0)
    assert charge(QUARTIC, grid, real_state) == pytest.approx(0.0, abs=1e-14)

    wave = solve_profile(QUARTIC, 0.5, [0.7])
    state = solitary_state(QUARTIC, grid, wave)
    q_exact = 0.5 * abs(wave.amplitudes[0]) ** 2 / wave.kappa
    assert charge(QUARTIC, grid, state) == pytest.approx(q_exact, abs=1e-4)

    conj = FieldState(np.conj(state.psi), np.conj(state.pi), 0.0)
    assert charge(QUARTIC, grid, conj) == pytest.approx(-charge(QUARTIC, grid, state), abs=1e-15)


def trapezoid_functionals(model, grid, state):
    """(H, Q, energy norm) with trapezoid node weights, 1/2 at the two end nodes: the whole-grid reference."""

    def trapezoid_vdot(u, v):
        return np.vdot(u, v) - 0.5 * (u[0].conjugate() * v[0] + u[-1].conjugate() * v[-1])

    psi, pi = state.psi, state.pi
    d = np.diff(psi)
    nodes = trapezoid_vdot(pi, pi) + model.mass**2 * trapezoid_vdot(psi, psi)
    norm2 = float((grid.dx * nodes + np.vdot(d, d) / grid.dx).real)
    pot = sum(potential(o, psi[i]) for o, i in zip(model.oscillators, grid.oscillator_nodes))
    return 0.5 * norm2 + pot, -grid.dx * float(trapezoid_vdot(psi, pi).imag), math.sqrt(norm2)


def test_whole_grid_functionals_equal_the_trapezoid_rule_bit_for_bit():
    # on states that are 0 at the Dirichlet end nodes, plain node sums are the trapezoid rule
    grid = build_grid(PAIR, -12.0, 12.0, 0.02)
    wave = solve_profile(PAIR, 0.4, [0.7, 0.7])
    sol = wide_gap_construct(1.0, math.pi, 2.0, -1.0)
    gap_model = sol.to_model()
    gap_grid = build_grid(gap_model, -8.0, sol.L + 8.0, 0.02)
    cases = [(PAIR, grid, solitary_state(PAIR, grid, wave, np.exp(0.3j))),
             (PAIR, grid, perturbed_solitary_state(PAIR, grid, wave, 0.1, seed=3)),
             (gap_model, gap_grid, init_from(sol, gap_grid))]
    for model, g, state in cases:
        # the observer of evolve reads the same form from its buffer of cell differences
        series, final = evolve(model, g, state, 10 * 0.009, 0.009, observe_every=10)
        for j, s in ((0, state), (1, final)):
            expected = trapezoid_functionals(model, g, s)
            assert (hamiltonian(model, g, s), charge(model, g, s), energy_norm(model, g, s)) == expected
            assert (series.energy[j], series.charge[j], series.energy_norm[j]) == expected


def test_perturbed_state_does_not_change_with_the_grid():
    # the README pair at omega = 0.4, seed 1: the noise widths are lengths in x, not multiples of dx
    wave = solve_profile(PAIR, 0.4, [0.7, 0.7])
    coarse, fine = (build_grid(PAIR, -15.0, 15.0, dx) for dx in (0.02, 0.01))
    a = perturbed_solitary_state(PAIR, coarse, wave, 0.1, seed=1)
    b = perturbed_solitary_state(PAIR, fine, wave, 0.1, seed=1)
    assert np.allclose(fine.x[::2], coarse.x, rtol=0.0, atol=1e-12)
    peak = np.max(np.abs(a.psi))
    assert np.max(np.abs(b.psi[::2] - a.psi)) <= 1e-3 * peak
    assert np.max(np.abs(b.pi[::2] - a.pi)) <= 1e-3 * np.max(np.abs(a.pi))


def test_local_seminorm_basics():
    grid = build_grid(QUARTIC, -10.0, 10.0, 0.05)
    zero = FieldState(np.zeros(grid.count, complex), np.zeros(grid.count, complex), 0.0)
    assert local_seminorm(QUARTIC, grid, zero, 3.0) == 0.0

    wave = solve_profile(QUARTIC, 0.5, [0.7])
    state = solitary_state(QUARTIC, grid, wave)
    values = [local_seminorm(QUARTIC, grid, state, r) for r in (1.0, 2.0, 5.0, 9.0)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    with pytest.warns(UserWarning):
        full = local_seminorm(QUARTIC, grid, state, 50.0)
    assert full == pytest.approx(energy_norm(QUARTIC, grid, state), rel=1e-12)


@pytest.mark.parametrize("R", [0.001, 1.0, 2.013, 4.0])
def test_local_seminorm_matches_mask_reference(R):
    # off-centre grid; R = 2.013 puts the window edge between nodes, R = 0.001 keeps one node
    grid = build_grid(PAIR, -4.3, 7.9, 0.02)
    wave = solve_profile(PAIR, 0.4, [0.7, 0.7])
    state = perturbed_solitary_state(PAIR, grid, wave, 0.1, seed=8)
    assert local_seminorm(PAIR, grid, state, R) == pytest.approx(mask_seminorm(PAIR, grid, state, R), rel=1e-13)


def test_local_seminorm_empty_window():
    model = ModelSpec(1.0, (OscillatorSpec(1.0, (0.0, -2.0, 1.0)),))
    grid = build_grid(model, 0.5, 3.0, 0.05)
    state = FieldState(np.exp(-grid.x**2).astype(complex), np.ones(grid.count, complex), 0.0)
    with pytest.warns(UserWarning):
        assert local_seminorm(model, grid, state, 0.2) == 0.0


def test_metric_dist_axioms():
    grid = build_grid(QUARTIC, -10.0, 10.0, 0.05)
    rng = np.random.default_rng(11)

    def random_state():
        psi = rng.normal(size=grid.count) * np.exp(-grid.x**2 / 4.0)
        pi = rng.normal(size=grid.count) * np.exp(-grid.x**2 / 4.0)
        psi[0] = psi[-1] = pi[0] = pi[-1] = 0.0  # the Dirichlet end nodes
        return FieldState(psi.astype(complex), pi.astype(complex), 0.0)

    a, b, c = random_state(), random_state(), random_state()
    assert metric_dist(QUARTIC, grid, a, a, 5) == 0.0
    dab = metric_dist(QUARTIC, grid, a, b, 5)
    assert dab == pytest.approx(metric_dist(QUARTIC, grid, b, a, 5), rel=1e-12)
    assert dab <= metric_dist(QUARTIC, grid, a, c, 5) + metric_dist(QUARTIC, grid, c, b, 5) + 1e-12
    diff = FieldState(a.psi - b.psi, a.pi - b.pi, 0.0)
    assert dab <= energy_norm(QUARTIC, grid, diff) + 1e-12


def full_grid_candidate_dist(model, grid, state, wave, r_max):
    """A candidate's distance as the whole-grid path computes it: the reference for the window path.

    The solitary state on the whole grid, the closed-form phase fit on the
    r_max window, the phased state, then sum 2^-R local_seminorm of the
    difference.
    """
    cand = solitary_state(model, grid, wave)
    w = grid.window(float(r_max))
    cells = np.vdot(np.diff(state.psi[w]), np.diff(cand.psi[w]))
    nodes = np.vdot(state.pi[w], cand.pi[w]) + model.mass**2 * np.vdot(state.psi[w], cand.psi[w])
    inner = grid.dx * nodes + cells / grid.dx
    phase = 1.0 + 0j if abs(inner) == 0.0 else inner.conjugate() / abs(inner)
    phased = FieldState(cand.psi * phase, cand.pi * phase, state.t)
    return full_grid_metric(model, grid, state, phased, r_max)


def full_grid_metric(model, grid, a, b, r_max):
    diff = FieldState(a.psi - b.psi, a.pi - b.pi, a.t)
    return sum(0.5**R * local_seminorm(model, grid, diff, float(R)) for R in range(1, r_max + 1))


# centred, off-centre, and clipped by the r_max = 5 window (which then holds both end nodes)
METRIC_GRIDS = [(-50.0, 50.0), (-30.0, 12.0), (-4.3, 4.1)]


@pytest.mark.parametrize("x_min, x_max", METRIC_GRIDS)
def test_window_candidates_equal_the_full_grid_path_bit_for_bit(x_min, x_max):
    grid = build_grid(PAIR, x_min, x_max, 0.02)
    state = perturbed_solitary_state(PAIR, grid, solve_profile(PAIR, 0.4, [0.7, 0.7]), 0.1, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the clipped grid warns of its r_max window
        outer, windows = _metric_windows(grid, 5)
        u = (state.psi[outer], state.pi[outer])
        for omega in np.linspace(0.1, 0.8, 15):
            wave = solve_profile(PAIR, float(omega), [0.7, 0.7])
            assert _candidate_dist(PAIR, grid, u, wave, outer, windows) == full_grid_candidate_dist(
                PAIR, grid, state, wave, 5)


@pytest.mark.parametrize("x_min, x_max", METRIC_GRIDS)
def test_metric_dist_equals_the_full_grid_sum_bit_for_bit(x_min, x_max):
    grid = build_grid(PAIR, x_min, x_max, 0.02)
    wave = solve_profile(PAIR, 0.4, [0.7, 0.7])
    a = perturbed_solitary_state(PAIR, grid, wave, 0.1, seed=1)
    b = solitary_state(PAIR, grid, wave, np.exp(0.7j))
    zero = FieldState(np.zeros(grid.count, complex), np.zeros(grid.count, complex), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r_max in (1, 3, 5):
            for x, y in ((a, b), (b, a), (a, zero)):
                assert metric_dist(PAIR, grid, x, y, r_max) == full_grid_metric(PAIR, grid, x, y, r_max)


def test_clipped_radius_warns_once_per_call():
    # on [-4.3, 4.1] only the radius 5 window exceeds the grid
    grid = build_grid(PAIR, -4.3, 4.1, 0.02)
    state = perturbed_solitary_state(PAIR, grid, solve_profile(PAIR, 0.4, [0.7, 0.7]), 0.1, seed=1)
    for call in (lambda: dist_to_manifold(PAIR, grid, state, np.linspace(0.1, 0.8, 15), 5),
                 lambda: metric_dist(PAIR, grid, state, state, 5)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [str(w.message) for w in caught] == ["seminorm window [-5.0, 5.0] exceeds the grid; clipping"]


@pytest.mark.parametrize("call", ["local_seminorm", "metric_dist", "dist_to_manifold", "evolve"])
def test_clipped_radius_warning_names_the_caller(call):
    grid = build_grid(PAIR, -4.3, 4.1, 0.02)
    state = perturbed_solitary_state(PAIR, grid, solve_profile(PAIR, 0.4, [0.7, 0.7]), 0.1, seed=1)
    calls = {
        "local_seminorm": lambda: local_seminorm(PAIR, grid, state, 5.0),
        "metric_dist": lambda: metric_dist(PAIR, grid, state, state, 5),
        "dist_to_manifold": lambda: dist_to_manifold(PAIR, grid, state, [0.4], 5),
        "evolve": lambda: evolve(PAIR, grid, state, 0.0, 0.009, seminorm_radii=(5.0,)),
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        calls[call]()
    assert [w.filename for w in caught] == [__file__]


@pytest.mark.parametrize("R", [0.0, -1.0, float("nan")])
def test_window_refuses_a_radius_that_is_not_positive(R):
    with pytest.raises(ValueError, match="R must be positive"):
        build_grid(QUARTIC, -5.0, 5.0, 0.05).window(R)


def test_dist_to_manifold_skips_failed_frequencies_and_fails_when_all_do():
    # the solitary branch of u = -0.8 s + s^2 exists only for |omega| > 0.6
    model = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -0.8, 1.0)),))
    grid = build_grid(model, -20.0, 20.0, 0.02)
    state = perturbed_solitary_state(model, grid, solve_profile(model, 0.7, [0.7]), 0.05, seed=3)
    zero = FieldState(np.zeros(grid.count), np.zeros(grid.count), 0.0)
    found = dist_to_manifold(model, grid, state, np.linspace(0.1, 0.8, 15), 5)
    assert found.best_omega == pytest.approx(0.6932, abs=1e-4)
    assert found.dist == pytest.approx(0.0542, abs=1e-4)
    assert found.dist < metric_dist(model, grid, state, zero, 5) == pytest.approx(0.3009, abs=1e-4)
    with pytest.raises(NoConvergence):
        dist_to_manifold(model, grid, state, np.linspace(0.1, 0.5, 5), 5)


# ---------------------------------------------------------------- evolution


def test_evolve_zero_duration():
    grid = build_grid(QUARTIC, -5.0, 5.0, 0.05)
    wave = solve_profile(QUARTIC, 0.5, [0.7])
    state = solitary_state(QUARTIC, grid, wave)
    series, final = evolve(QUARTIC, grid, state, 0.0, 0.02)
    assert len(series.times) == 1
    assert np.array_equal(final.psi, state.psi)


def test_evolve_matches_out_of_place_reference():
    grid = build_grid(PAIR, -6.0, 6.0, 0.02)
    wave = solve_profile(PAIR, 0.4, [0.7, 0.7])
    state = perturbed_solitary_state(PAIR, grid, wave, 0.1, seed=3)
    _, final = evolve(PAIR, grid, state, 9.0, 0.009, observe_every=7)
    psi, pi = reference_kdk(PAIR, grid, state, 0.009, 1000)
    assert np.array_equal(final.psi.view(np.int64), psi.view(np.int64))
    assert np.array_equal(final.pi.view(np.int64), pi.view(np.int64))


@pytest.mark.parametrize("model, dt", [(QUARTIC, 0.009), (TRIPLE, 0.009), (PAIR, -0.009), (TRIPLE, -0.013)],
                         ids=["one", "three", "pair-backward", "three-backward"])
def test_evolve_matches_out_of_place_reference_bit_for_bit(model, dt):
    grid = build_grid(model, -6.0, 6.0, 0.02)
    state = gaussian_data(grid, 0.8 * np.exp(0.3j), 0.1, 0.7, 0.4)
    _, final = evolve(model, grid, state, 1000 * abs(dt), dt, observe_every=7)
    psi, pi = reference_kdk(model, grid, state, dt, 1000)
    assert final.t == pytest.approx(1000 * dt, rel=1e-12)
    # the float64 views of the complex buffers agree bit for bit, signed zeros included
    assert np.array_equal(final.psi.view(np.int64), psi.view(np.int64))
    assert np.array_equal(final.pi.view(np.int64), pi.view(np.int64))


@pytest.mark.parametrize("model, dt, perturbed", [(PAIR, 0.009, True), (QUARTIC, 0.009, False),
                                                  (TRIPLE, 0.009, False), (PAIR, -0.009, False),
                                                  (TRIPLE, -0.013, False)],
                         ids=["pair-perturbed", "one", "three", "pair-backward", "three-backward"])
def test_evolve_agrees_with_the_textbook_kick_drift_kick(model, dt, perturbed):
    grid = build_grid(model, -6.0, 6.0, 0.02)
    if perturbed:
        state = perturbed_solitary_state(PAIR, grid, solve_profile(PAIR, 0.4, [0.7, 0.7]), 0.1, seed=3)
    else:
        state = gaussian_data(grid, 0.8 * np.exp(0.3j), 0.1, 0.7, 0.4)
    _, final = evolve(model, grid, state, 1000 * abs(dt), dt, observe_every=7)
    psi, pi = textbook_kdk(model, grid, state, dt, 1000)
    peak = max(np.max(np.abs(psi)), np.max(np.abs(pi)))
    gap = max(np.max(np.abs(final.psi - psi)), np.max(np.abs(final.pi - pi)))
    # the folded diagonal and the pre-scaled kick only round differently: the gap is 4.3e-13 of the
    # peak at worst over these cases, and 1e-10 lies 5e7 times below the tightest accuracy tolerance
    # a test puts on a simulated field or trace (5e-3, criterion 2)
    assert gap <= 1e-10 * peak


@pytest.mark.parametrize("dt", [0.009, -0.009], ids=["forward", "backward"])
def test_restart_continues_bit_for_bit(dt):
    grid = build_grid(PAIR, -6.0, 6.0, 0.02)
    state = perturbed_solitary_state(PAIR, grid, solve_profile(PAIR, 0.4, [0.7, 0.7]), 0.1, seed=8)
    n1, n2 = 130, 247  # observe_every = 7 divides neither, nor their sum
    _, whole = evolve(PAIR, grid, state, (n1 + n2) * abs(dt), dt, observe_every=7)
    _, first = evolve(PAIR, grid, state, n1 * abs(dt), dt, observe_every=7)
    _, second = evolve(PAIR, grid, first, n2 * abs(dt), dt, observe_every=7)
    assert second.t == pytest.approx(whole.t, abs=1e-12)
    assert np.array_equal(second.psi.view(np.int64), whole.psi.view(np.int64))
    assert np.array_equal(second.pi.view(np.int64), whole.pi.view(np.int64))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    gaps=st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.5]), max_size=2),
    coefficients=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 2.0), st.floats(0.0, 0.5)),
                       min_size=3, max_size=3),
    amplitude=st.floats(0.1, 1.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    width=st.floats(0.5, 1.5),
    omega=st.floats(0.3, 0.9),
)
def test_invariants_over_random_bounded_below_models(gaps, coefficients, amplitude, phase, width, omega):
    # U_J(z) = c1 z + c2 z^2 + c3 z^3 with c2 > 0, c3 >= 0: bounded below in z = |psi|^2
    positions = np.cumsum([0.0] + gaps)
    model = ModelSpec(1.0, tuple(OscillatorSpec(float(p), (0.0, c1, c2, c3))
                                 for p, (c1, c2, c3) in zip(positions, coefficients)))
    grid = build_grid(model, -8.0, 9.0, 0.05)
    state = gaussian_data(grid, amplitude * np.exp(1j * phase), float(positions[-1]) / 2, width, omega)
    drifts = {}
    for dt, every in ((0.02, 5), (0.01, 10)):  # the same sample times
        series, _ = evolve(model, grid, state, 4.0, dt, observe_every=every)
        charge_drift = np.max(np.abs(series.charge - series.charge[0]))
        assert charge_drift <= 1e-12 * abs(series.charge[0])
        drifts[dt] = np.max(np.abs(series.energy - series.energy[0]))
    # kick-drift-kick: energy error O(dt^2), so halving dt divides the drift by about 4
    assert drifts[0.02] >= 3.0 * drifts[0.01]


@pytest.mark.parametrize("x_min, x_max", [(-6.0, 6.0), (-4.3, 7.9)])
def test_observer_series_matches_standalone_functionals(x_min, x_max):
    grid = build_grid(PAIR, x_min, x_max, 0.02)
    wave = solve_profile(PAIR, 0.4, [0.7, 0.7])
    state = perturbed_solitary_state(PAIR, grid, wave, 0.1, seed=6)
    radii = (1.0, 2.013, 4.0)  # the window edge at 2.013 falls between nodes
    series, _ = evolve(PAIR, grid, state, 0.45, 0.009, observe_every=10, seminorm_radii=radii)
    assert len(series.times) == 6
    s = state
    for j in range(len(series.times)):
        for _ in range(10 if j else 0):
            s = step(PAIR, grid, s, 0.009)
        assert series.times[j] == pytest.approx(s.t, abs=1e-12)
        assert series.energy[j] == pytest.approx(hamiltonian(PAIR, grid, s), rel=1e-13)
        assert series.charge[j] == pytest.approx(charge(PAIR, grid, s), rel=1e-13)
        assert series.energy_norm[j] == pytest.approx(energy_norm(PAIR, grid, s), rel=1e-13)
        for r in radii:
            assert series.seminorms[r][j] == pytest.approx(local_seminorm(PAIR, grid, s, r), rel=1e-13)
        assert np.array_equal(series.traces_psi[j], s.psi[list(grid.oscillator_nodes)])
        assert np.array_equal(series.traces_pi[j], s.pi[list(grid.oscillator_nodes)])


def test_evolve_forward_then_backward_returns():
    grid = build_grid(PAIR, -6.0, 6.0, 0.02)
    wave = solve_profile(PAIR, 0.4, [0.7, 0.7])
    state = perturbed_solitary_state(PAIR, grid, wave, 0.1, seed=4)
    _, forward = evolve(PAIR, grid, state, 1.0, 0.01, observe_every=20)
    series, back = evolve(PAIR, grid, forward, 1.0, -0.01, observe_every=20)
    assert len(series.times) == 6
    assert series.times[-1] == back.t
    assert back.t == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(back.psi - state.psi)) <= 1e-12
    assert np.max(np.abs(back.pi - state.pi)) <= 1e-12


def test_conservation_drift_halves_with_dt():
    wave = solve_profile(QUARTIC, 0.5, [0.7])
    grid = build_grid(QUARTIC, -15.0, 15.0, 0.02)
    state = perturbed_solitary_state(QUARTIC, grid, wave, 0.1, seed=5)
    drifts = {}
    for dt in (0.016, 0.008):
        series, _ = evolve(QUARTIC, grid, state, 20.0, dt, observe_every=25)
        drifts[dt] = (
            float(np.max(np.abs(series.energy - series.energy[0]))),
            float(np.max(np.abs(series.charge - series.charge[0]))),
        )
    assert drifts[0.016][0] / drifts[0.008][0] >= 3.0
    # charge is a bilinear invariant and kick-drift-kick preserves it exactly:
    # both drifts sit at the roundoff floor, strictly better than dt^2 scaling
    assert drifts[0.016][1] <= 1e-13
    assert drifts[0.008][1] <= 1e-13


def test_evolve_u1_equivariance():
    grid = build_grid(QUARTIC, -10.0, 10.0, 0.05)
    wave = solve_profile(QUARTIC, 0.5, [0.7])
    state = perturbed_solitary_state(QUARTIC, grid, wave, 0.05, seed=9)
    phase = np.exp(1j * 0.77)
    rotated = FieldState(state.psi * phase, state.pi * phase, 0.0)
    _, final_a = evolve(QUARTIC, grid, state, 2.0, 0.02, observe_every=10**9)
    _, final_b = evolve(QUARTIC, grid, rotated, 2.0, 0.02, observe_every=10**9)
    assert np.max(np.abs(final_b.psi - phase * final_a.psi)) <= 1e-12
    assert np.max(np.abs(final_b.pi - phase * final_a.pi)) <= 1e-12


def test_time_reversibility():
    grid = build_grid(QUARTIC, -10.0, 10.0, 0.05)
    wave = solve_profile(QUARTIC, 0.5, [0.7])
    state = perturbed_solitary_state(QUARTIC, grid, wave, 0.1, seed=2)
    forward = state
    n = 200
    for _ in range(n):
        forward = step(QUARTIC, grid, forward, 0.02)
    back = forward
    for _ in range(n):
        back = step(QUARTIC, grid, back, -0.02)
    assert np.max(np.abs(back.psi - state.psi)) <= 1e-10
    assert np.max(np.abs(back.pi - state.pi)) <= 1e-10


def test_apriori_bound_holds_along_flow():
    wave = solve_profile(PAIR, 0.4, [0.7, 0.7])
    grid = build_grid(PAIR, -15.0, 15.0, 0.02)
    state = perturbed_solitary_state(PAIR, grid, wave, 0.1, seed=3)
    bound = apriori_bound(PAIR, grid, state)
    series, final = evolve(PAIR, grid, state, 10.0, 0.009, observe_every=100)
    for t_state in (state, final):
        assert energy_norm(PAIR, grid, t_state) <= bound
    assert np.all(series.energy_norm <= bound)


def test_free_field_local_energy_decay():
    model = free_model()
    grid = build_grid(model, -50.0, 50.0, 0.05)
    state = smooth_compact_data(grid)
    initial = local_seminorm(model, grid, state, 5.0)
    _, final = evolve(model, grid, state, 40.0, 0.0225, observe_every=10**9)
    assert local_seminorm(model, grid, final, 5.0) <= 0.1 * initial


def test_free_flow_disperses_solitary_profile():
    model = free_model()
    wave = solve_profile(QUARTIC, 0.5, [0.7])
    grid = build_grid(model, -50.0, 50.0, 0.05)
    state = solitary_state(QUARTIC, grid, wave)
    initial = local_seminorm(model, grid, state, 2.0)
    _, final = evolve(model, grid, state, 40.0, 0.0225, observe_every=10**9)
    assert local_seminorm(model, grid, final, 2.0) <= 0.5 * initial


def test_finite_propagation_speed():
    # stencil cone: dt close to dx keeps the numerical cone within x = t + dx
    model = free_model()
    grid = build_grid(model, -8.0, 8.0, 0.05)
    state = smooth_compact_data(grid)
    dt = 0.049
    _, final = evolve(model, grid, state, 2.0, dt, observe_every=10**9)
    outside = np.abs(grid.x) > 1.0 + final.t + grid.dx
    assert np.max(np.abs(final.psi[outside])) <= 1e-12
    assert np.max(np.abs(final.pi[outside])) <= 1e-12


# ---------------------------------------------------------------- manifold


def test_dist_to_manifold_recovers_exact_state():
    grid = build_grid(QUARTIC, -15.0, 15.0, 0.02)
    wave = solve_profile(QUARTIC, 0.5, [0.7])
    state = solitary_state(QUARTIC, grid, wave)
    result = dist_to_manifold(QUARTIC, grid, state, np.linspace(0.1, 0.9, 9), 5)
    assert result.dist <= 5e-3
    assert result.best_omega == pytest.approx(0.5, abs=2e-3)


def test_dist_to_manifold_zero_state():
    grid = build_grid(QUARTIC, -10.0, 10.0, 0.05)
    zero = FieldState(np.zeros(grid.count, complex), np.zeros(grid.count, complex), 0.0)
    result = dist_to_manifold(QUARTIC, grid, zero, [0.3, 0.5], 5)
    assert result.dist == 0.0
    assert math.isnan(result.best_omega)


def test_dist_to_manifold_phase_invariant():
    grid = build_grid(QUARTIC, -15.0, 15.0, 0.02)
    wave = solve_profile(QUARTIC, 0.5, [0.7])
    state = solitary_state(QUARTIC, grid, wave, phase=np.exp(1j * 1.3))
    plain = solitary_state(QUARTIC, grid, wave)
    omegas = [0.4, 0.5, 0.6]
    a = dist_to_manifold(QUARTIC, grid, state, omegas, 5)
    b = dist_to_manifold(QUARTIC, grid, plain, omegas, 5)
    assert a.dist == pytest.approx(b.dist, abs=1e-10)
