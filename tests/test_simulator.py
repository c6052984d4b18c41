import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpoint import _passes
from kgpoint.counterexamples import init_from, wide_gap_construct
from kgpoint.model import ModelSpec, OscillatorSpec, force, potential
from kgpoint.simulator import (
    FieldState,
    NoCommensurateGrid,
    _bound_metric,
    _kdk,
    _metric_windows,
    _solitary_sample,
    _window_nodes,
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


@pytest.mark.parametrize("name, bounds", [
    ("x_min", (-np.inf, 10.0, 0.01)), ("x_min", (np.nan, 10.0, 0.01)), ("x_max", (-10.0, np.inf, 0.01)),
    ("dx_target", (-10.0, 10.0, np.inf)), ("dx_target", (-10.0, 10.0, np.nan)),
], ids=["x_min-inf", "x_min-nan", "x_max-inf", "dx_target-inf", "dx_target-nan"])
def test_build_grid_refuses_a_non_finite_bound_or_step(name, bounds):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        build_grid(QUARTIC, *bounds)


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


# steps below dx that the massive lattice field does not admit: each lies midway between the limit
# 2/sqrt(m^2 + 4/dx^2) and dx; run on a zero-force oscillator, a staggered seed of amplitude 1e-6 grew to 6.4e4
# in 2000 steps at the first, and the field went non-finite at t = 56.8 at the second
@pytest.mark.parametrize("mass, dx, dt", [(1.0, 0.02, 0.0199995), (10.0, 0.1, 0.0947)], ids=["m1", "m10"])
def test_steps_beyond_the_massive_cfl_limit_are_refused(mass, dx, dt):
    model = ModelSpec(mass, (OscillatorSpec(0.0, (0.0, 0.0)),))
    grid = build_grid(model, -1.0, 1.0, dx)
    assert grid.dx == dx
    limit = 2.0 / math.sqrt(mass**2 + 4.0 / dx**2)
    assert limit < dt < dx
    zero = FieldState(np.zeros(grid.count, complex), np.zeros(grid.count, complex), 0.0)
    for refused in (dt, -dt, limit):
        with pytest.raises(ValueError, match="CFL"):
            step(model, grid, zero, refused)
        with pytest.raises(ValueError, match="CFL"):
            evolve(model, grid, zero, 1.0, refused)
    below = math.nextafter(limit, 0.0)
    for accepted in (below, -below):
        assert step(model, grid, zero, accepted).t == accepted
        series, _ = evolve(model, grid, zero, 10 * below, accepted)
        assert len(series.times) == 11


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
    with pytest.raises(FloatingPointError, match=r"detected at t=0\.02$"):  # the first sample after the blow-up
        evolve(QUARTIC, grid, state, 1.0, 0.02, observe_every=1)


def test_finite_field_with_overflowing_energy_runs_on():
    # |psi|^2 overflows in the energy sums, which are then not finite, but every psi and pi stays finite
    grid = build_grid(QUARTIC, -5.0, 5.0, 0.05)
    assert not 20 <= grid.oscillator_nodes[0] < 30
    psi = np.zeros(grid.count, complex)
    psi[20:30] = 1e160
    state = FieldState(psi, np.zeros(grid.count, complex), 0.0)
    series, final = evolve(QUARTIC, grid, state, 0.2, 0.02, observe_every=1)
    assert len(series.times) == 11
    assert np.all(np.isfinite(final.psi)) and np.all(np.isfinite(final.pi))
    assert not np.any(np.isfinite(series.energy)) and not np.any(np.isfinite(series.energy_norm))


@pytest.mark.parametrize("model", [QUARTIC, PAIR], ids=["quartic", "pair"])
@pytest.mark.parametrize("modulus", [1e160, 1e200])
def test_stepping_keeps_the_reference_bits_where_a_node_force_overflows(monkeypatch, model, modulus):
    # |psi|^2 at the first oscillator node overflows, which raises OverflowError on the Python scalars the loop
    # reads and gives inf on the numpy scalars reference_kdk reads; the field then turns nan node by node
    grid = build_grid(model, -1.0, 1.2, 0.05)
    psi = np.zeros(grid.count, complex)
    psi[grid.oscillator_nodes[0]] = modulus * np.exp(0.3j)
    state = FieldState(psi, 0.5j * psi, 0.0)
    buffers = []
    monkeypatch.setattr(_passes, "bind", _recording_bind(buffers))
    with pytest.raises(FloatingPointError):
        _kdk(model, grid, state, 0.02, 6, 7, {})  # no sample past step 0 flags the field: the run ends, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference_kdk(model, grid, state, 0.02, 6)
    assert not np.all(np.isfinite(expected[1]))
    for got, want in zip(buffers, expected):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _recording_bind(buffers):
    """_passes.bind, which also puts the (psi, pi) buffers of each run it binds in buffers."""
    bind = _passes.bind

    def recording(psi, pi, *args):
        buffers.extend((psi, pi))
        return bind(psi, pi, *args)

    return recording


def _kdk_buffers(model, grid, state, dt, n_steps):
    """The final (psi, pi) buffers of _kdk sampled at step 0 alone, so that its loop runs to the end, non-finite
    buffers included."""
    buffers = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_passes, "bind", _recording_bind(buffers))
        try:
            _kdk(model, grid, state, dt, n_steps, n_steps + 1, {})
        except FloatingPointError:
            pass
    return buffers


def test_a_step_squares_node_moduli_with_libm_pow(node_values):
    # a compiler folds pow(x, 2.0) into x * x, which rounds apart from numpy's |z| ** 2 at the values picked
    # here: one step from each, and from each where |z|^2 overflows, must keep reference_kdk's bits.  The
    # node values hold 2 such moduli, both small enough that the force's constant term absorbs the
    # difference; the 10 among 20000 moduli from 1 to 1e150 are added, where |z|^2 dominates the force.
    rng = np.random.default_rng(21)
    large = 10.0 ** rng.uniform(0.0, 150.0, 20000) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 20000))
    with np.errstate(over="ignore"):
        apart = [z for z in (*node_values, *large) if abs(z) ** 2 != abs(z) * abs(z)]
        overflowing = [z for z in node_values if np.isinf(abs(z) ** 2)]
    assert len(apart) > 10 and len(overflowing) > 50
    for osc in (OscillatorSpec(0.0, (0.0, -2.0, 1.0)), OscillatorSpec(0.0, (0.1, -1.0, 0.0, 0.5)),
                OscillatorSpec(0.0, (0.3, 1.5))):
        model = ModelSpec(1.0, (osc,))
        grid = build_grid(model, *_edge_bounds(5))
        for z in (*apart, *overflowing):
            psi = np.zeros(grid.count, complex)
            psi[grid.oscillator_nodes[0]] = z
            state = FieldState(psi, 0.5j * psi, 0.0)
            with np.errstate(over="ignore", invalid="ignore"):
                expected = reference_kdk(model, grid, state, 0.1, 1)
            for got, want in zip(_kdk_buffers(model, grid, state, 0.1, 1), expected):
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (osc, z)


def test_observer_energy_equals_hamiltonian_where_node_moduli_approach_overflow():
    # the observer and hamiltonian evaluate the potentials on Python scalars, the trapezoid reference on numpy's
    grid = build_grid(PAIR, -1.0, 1.2, 0.05)
    finite = 0
    for modulus in (1e76, 1e77, 1e100, 1e150, 1e154, 1.4e154, 1e160, 1e200):
        psi = np.zeros(grid.count, complex)
        psi[list(grid.oscillator_nodes)] = modulus * np.exp(0.3j), 0.5
        state = FieldState(psi, np.zeros(grid.count, complex), 0.0)
        series, _ = evolve(PAIR, grid, state, 0.0, 0.02)
        with np.errstate(over="ignore", invalid="ignore"):
            reference = trapezoid_functionals(PAIR, grid, state)[0]
        h = hamiltonian(PAIR, grid, state)
        if math.isfinite(series.energy[0]):
            finite += 1
            assert series.energy[0] == h == reference
        else:
            assert not math.isfinite(h) and not math.isfinite(reference)
    assert 0 < finite < 8


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


def fixed_order_lanes(terms):
    """The two lanes of a sum of (lane 0, lane 1) terms in the energy form's fixed order, on Python floats.

    Term i adds into accumulator i mod 4, lane by lane, each accumulator from
    0.0; the accumulators combine as ((s0 + s1) + (s2 + s3)).
    """
    acc = [[0.0, 0.0] for _ in range(4)]
    for i, (l0, l1) in enumerate(terms):
        s = acc[i % 4]
        s[0] = s[0] + l0
        s[1] = s[1] + l1
    return tuple((acc[0][k] + acc[1][k]) + (acc[2][k] + acc[3][k]) for k in (0, 1))


def fixed_order_dot(a, b, weights=None):
    """(Re, Im) of sum_i w_i conj(a_i) b_i in the fixed order: Re is lane 0 + lane 1 of (Re Re, Im Im), Im is
    lane 0 - lane 1 of (Re Im, Im Re); a weight multiplies each lane's product."""
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    w = [1.0] * len(a) if weights is None else weights
    re = fixed_order_lanes((c * (x.real * y.real), c * (x.imag * y.imag)) for c, x, y in zip(w, a, b))
    im = fixed_order_lanes((c * (x.real * y.imag), c * (x.imag * y.real)) for c, x, y in zip(w, a, b))
    return re[0] + re[1], im[0] - im[1]


def fixed_order_form(m2, dx, a, b, weights=None):
    """(Re, Im) of the energy form of two (psi, pi) pairs on the same nodes, transcribed from the compiled form."""
    (a_psi, a_pi), (b_psi, b_pi) = a, b
    pi_sum, psi_sum = fixed_order_dot(a_pi, b_pi, weights), fixed_order_dot(a_psi, b_psi, weights)
    cells = fixed_order_dot(np.diff(a_psi), np.diff(b_psi))
    return tuple(dx * (p + m2 * q) + c / dx for p, q, c in zip(pi_sum, psi_sum, cells))


def fixed_order_seminorm(model, grid, psi, pi):
    return math.sqrt(fixed_order_form(model.mass**2, grid.dx, (psi, pi), (psi, pi))[0])


def left_to_right(terms):
    total = 0.0
    for term in terms:
        total = total + term
    return total


def trapezoid_functionals(model, grid, state):
    """(H, Q, energy norm) with trapezoid node weights, 1/2 at the two end nodes: the whole-grid reference.

    Each sum is the compiled form's fixed order transcribed to Python floats,
    and the potentials are summed left to right from 0.0.
    """
    psi, pi = state.psi, state.pi
    weights = [0.5] + [1.0] * (grid.count - 2) + [0.5]
    norm2 = fixed_order_form(model.mass**2, grid.dx, (psi, pi), (psi, pi), weights)[0]
    pot = left_to_right(potential(o, psi[i]) for o, i in zip(model.oscillators, grid.oscillator_nodes))
    return 0.5 * norm2 + pot, -grid.dx * fixed_order_dot(psi, pi, weights)[1], math.sqrt(norm2)


def vdot_functionals(model, grid, state):
    """(H, Q, energy norm) by np.vdot, whose order is the BLAS kernel's: the second reference, to roundoff."""
    psi, pi = state.psi, state.pi
    d = np.diff(psi)
    norm2 = float((grid.dx * (np.vdot(pi, pi) + model.mass**2 * np.vdot(psi, psi)) + np.vdot(d, d) / grid.dx).real)
    pot = left_to_right(potential(o, psi[i]) for o, i in zip(model.oscillators, grid.oscillator_nodes))
    return 0.5 * norm2 + pot, -grid.dx * float(np.vdot(psi, pi).imag), math.sqrt(norm2)


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
            h, q, norm = vdot_functionals(model, g, s)
            assert energy_norm(model, g, s) == pytest.approx(norm, rel=1e-13, abs=0.0)
            assert hamiltonian(model, g, s) == pytest.approx(h, rel=0.0, abs=1e-13 * norm**2)
            assert charge(model, g, s) == pytest.approx(q, rel=0.0, abs=1e-13 * norm**2)


def test_solitary_state_matches_its_python_float_transcription_word_for_word():
    # psi = phi phase and pi = s psi, s = -1j omega as CPython 3.10-3.12 form it, each product numpy's complex one
    # with the left operand first, and both 0 at the Dirichlet end nodes; phi is profile_eval's, checked on its own
    grid = build_grid(TRIPLE, -3.0, 3.0, 0.02)
    wave = solve_profile(TRIPLE, 0.45, [0.7] * 3)
    s = (-0.0 * wave.omega - -1.0 * 0.0, -0.0 * 0.0 + -1.0 * wave.omega)
    for phase in (1.0 + 0j, complex(math.cos(0.3), math.sin(0.3)), -1j):
        state = solitary_state(TRIPLE, grid, wave, phase)
        psi, pi = [], []
        for i, phi in enumerate(profile_eval(TRIPLE, wave, grid.x).tolist()):
            p = (phi.real * phase.real - phi.imag * phase.imag, phi.real * phase.imag + phi.imag * phase.real)
            p = (0.0, 0.0) if i in (0, grid.count - 1) else p
            psi += p
            pi += (s[0] * p[0] - s[1] * p[1], s[0] * p[1] + s[1] * p[0])
        assert state.psi.view(np.uint64).tolist() == np.array(psi).view(np.uint64).tolist()
        assert state.pi.view(np.uint64).tolist() == np.array(pi).view(np.uint64).tolist()


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


def avx512_targets():
    """The AVX-512 targets numpy dispatches on this CPU, named as the running numpy names them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__
            if (name.startswith("AVX512") or name == "X86_V4") and umath.__cpu_features__.get(name)]


DISPATCH_PROBE = """
import hashlib, struct, sys
import numpy as np
from kgpoint.model import ModelSpec, OscillatorSpec
from kgpoint.simulator import build_grid, dist_to_manifold, perturbed_solitary_state
from kgpoint.solitary import profile_eval, solve_profile
model = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -2.0, 1.0)), OscillatorSpec(0.2, (0.0, -2.0, 1.0))))
grid = build_grid(model, -50.0, 50.0, 0.02)
wave = solve_profile(model, 0.4, [0.7, 0.7])
state = perturbed_solitary_state(model, grid, wave, 0.1, seed=1)
found = dist_to_manifold(model, grid, state, np.linspace(0.1, 0.8, 15), 5)
for data in (profile_eval(model, wave, grid.x).tobytes(), state.psi.tobytes() + state.pi.tobytes(),
             struct.pack("<3d", found.dist, found.best_omega, found.wave.kappa)):
    print(hashlib.sha256(data).hexdigest())
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="numpy's AVX-512 targets are x86-64's")
def test_samples_do_not_depend_on_numpys_simd_dispatch():
    # numpy's AVX-512 exp rounds apart from libm's; the profile, the noise and the manifold distance's candidates take
    # libm's, so the README grid's profile, its perturbed state and a distance keep their bytes without those targets
    targets = avx512_targets()
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 target on this CPU")
    src = str(Path(__file__).parents[1] / "src")
    outputs = []
    for disabled in (None, " ".join(targets)):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        done = subprocess.run([sys.executable, "-c", DISPATCH_PROBE], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert len(outputs[0]) == 3 and outputs[0] == outputs[1]


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
    far = build_grid(ModelSpec(1.0, (OscillatorSpec(10.0, (0.0, -2.0, 1.0)),)), 5.0, 15.0, 0.05)
    ones = FieldState(np.ones(far.count, complex), np.ones(far.count, complex), 0.0)
    with pytest.warns(UserWarning):  # no node has |x| <= 1, so every window of the metric is empty
        assert metric_dist(model, far, ones, ones, 1) == 0.0


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


def candidate_dist(probe, model, grid, u, wave, outer, windows):
    """The metric distance from u, a (psi, pi) pair on the nodes of the outer window, to the closest phase of a wave,
    as the manifold distance's search takes it: the wave sampled on the outer window alone, the phase in closed form."""
    return probe.fit_dist(_bound_metric(model, grid, u, windows), *_solitary_sample(model, grid, wave, outer))


def full_grid_candidate_dist(model, grid, state, wave, r_max):
    """A candidate's distance as the whole-grid path computes it: the reference for the window path.

    The solitary state on the whole grid, the closed-form phase fit on the
    r_max window, the phased state, then sum 2^-R |.|_{E,R} of the
    difference; every form is the fixed order transcribed to Python floats.
    """
    cand = solitary_state(model, grid, wave)
    w = grid.window(float(r_max))
    zr, zi = fixed_order_form(model.mass**2, grid.dx, (state.psi[w], state.pi[w]), (cand.psi[w], cand.pi[w]))
    r = math.hypot(zr, zi)
    phase = complex(zr / r, -zi / r) if r != 0.0 else 1.0 + 0j
    phased = FieldState(cand.psi * phase, cand.pi * phase, state.t)
    return full_grid_metric(model, grid, state, phased, r_max, fixed_order_seminorm)


def vdot_candidate_dist(model, grid, state, wave, r_max):
    """The same with np.vdot, whose order is the BLAS kernel's, and numpy's phase: the second reference."""
    cand = solitary_state(model, grid, wave)
    w = grid.window(float(r_max))
    cells = np.vdot(np.diff(state.psi[w]), np.diff(cand.psi[w]))
    nodes = np.vdot(state.pi[w], cand.pi[w]) + model.mass**2 * np.vdot(state.psi[w], cand.psi[w])
    inner = grid.dx * nodes + cells / grid.dx
    phase = 1.0 + 0j if abs(inner) == 0.0 else inner.conjugate() / abs(inner)
    phased = FieldState(cand.psi * phase, cand.pi * phase, state.t)

    def vdot_seminorm(model, grid, psi, pi):
        d = np.diff(psi)
        nodes = np.vdot(pi, pi) + model.mass**2 * np.vdot(psi, psi)
        return math.sqrt(float((grid.dx * nodes + np.vdot(d, d) / grid.dx).real))

    return full_grid_metric(model, grid, state, phased, r_max, vdot_seminorm)


def full_grid_metric(model, grid, a, b, r_max, seminorm=None):
    """sum 2^-R |a - b|_{E,R} left to right from 0.0, the difference taken on the whole grid.

    Each seminorm is local_seminorm's, or seminorm(model, grid, psi, pi)'s on the window's nodes.
    """
    diff = FieldState(a.psi - b.psi, a.pi - b.pi, a.t)
    terms = []
    for R in range(1, r_max + 1):
        if seminorm is None:
            terms.append(0.5**R * local_seminorm(model, grid, diff, float(R)))
        else:
            w = grid.window(float(R))
            terms.append(0.5**R * seminorm(model, grid, diff.psi[w], diff.pi[w]))
    return left_to_right(terms)


# centred, off-centre, and clipped by the r_max = 5 window (which then holds both end nodes)
METRIC_GRIDS = [(-50.0, 50.0), (-30.0, 12.0), (-4.3, 4.1)]


@pytest.mark.parametrize("x_min, x_max", METRIC_GRIDS)
def test_window_candidates_equal_the_full_grid_path_bit_for_bit(probe, x_min, x_max):
    grid = build_grid(PAIR, x_min, x_max, 0.02)
    state = perturbed_solitary_state(PAIR, grid, solve_profile(PAIR, 0.4, [0.7, 0.7]), 0.1, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the clipped grid warns of its r_max window
        outer, windows = _metric_windows(grid, 5)
        u = (state.psi[outer], state.pi[outer])
        for omega in np.linspace(0.1, 0.8, 15):
            wave = solve_profile(PAIR, float(omega), [0.7, 0.7])
            dist = candidate_dist(probe, PAIR, grid, u, wave, outer, windows)
            assert dist == full_grid_candidate_dist(PAIR, grid, state, wave, 5)
            assert dist == pytest.approx(vdot_candidate_dist(PAIR, grid, state, wave, 5), rel=1e-13, abs=0.0)


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


@pytest.mark.parametrize("length", range(10))
def test_the_compiled_form_keeps_the_fixed_order_on_every_lane_tail(probe, length):
    # 0 to 9 nodes: after the last whole group of four, 0 to 3 nodes (and one cell fewer) fill the accumulators
    from kgpoint import _passes

    rng = np.random.default_rng(40 + length)
    count, dx = 23, 0.05
    psi, pi, wave_psi, wave_pi = (rng.normal(size=count) + 1j * rng.normal(size=count) for _ in range(4))
    # one oscillator of zero potential, which adds exactly 0.0 to H; a run's form takes its m2 as mass**2, and the
    # metric's is the same
    free = ModelSpec(1.3, (OscillatorSpec(0.0, (0.0, 0.0)),))
    m2 = free.mass**2

    def one_row(windows):  # the columns t, H, Q, the energy norm and a seminorm per window; the one node's traces
        return np.zeros((4 + len(windows), 1)), np.zeros((2, 1, 1), complex)

    # the whole-state sums, the charge's among them, on the nodes alone; a state of no nodes holds no oscillator
    u = (psi[:length], pi[:length])
    if length:
        series, traces = one_row([])
        assert _passes.bind(*u, None, free, (0,), dx, 0.0, [], series, traces)(0) == -1
        reference = fixed_order_form(m2, dx, u, u)[0]
        # H is half the squared norm plus 0.0, so twice H is the squared norm, exactly
        assert 2.0 * series[1, 0] == reference and series[3, 0] == math.sqrt(reference)
        assert series[2, 0] == -dx * fixed_order_dot(*u)[1]

    # seminorm windows of the nodes within a larger state; the first and the last hold an end node
    windows = [(start, start + length) for start in (0, 1, 6, count - length)]
    series, traces = one_row(windows)
    _passes.bind(psi, pi, None, free, (11,), dx, 0.0, windows, series, traces)(0)
    for (start, stop), value in zip(windows, series[4:, 0]):
        v = (psi[start:stop], pi[start:stop])
        assert value == math.sqrt(fixed_order_form(m2, dx, v, v)[0])

    # the metric of the nodes and its phase fit to a wave on them, whose inner product sums the Im lanes too
    radii = [(0, length), (length // 2, length), (0, 0)]
    metric = _passes.Metric(*u, m2, dx, radii)
    w = (wave_psi[:length], wave_pi[:length])
    zr, zi = fixed_order_form(m2, dx, u, w)
    r = math.hypot(zr, zi)
    er, ei = (zr / r, -zi / r) if r != 0.0 else (1.0, 0.0)

    def phased(z):  # the unfused product (wr er - wi ei, wr ei + wi er) that the fit computes, not numpy's
        out = np.empty_like(z)
        out.real, out.imag = z.real * er - z.imag * ei, z.real * ei + z.imag * er
        return out

    for dist, (d_psi, d_pi) in ((metric.dist(), u), (probe.fit_dist(metric, *w), (u[0] - phased(w[0]),
                                                                                   u[1] - phased(w[1])))):
        expected = left_to_right(0.5**R * math.sqrt(fixed_order_form(m2, dx, (d_psi[a:b], d_pi[a:b]),
                                                                     (d_psi[a:b], d_pi[a:b]))[0])
                                 for R, (a, b) in enumerate(radii, 1))
        assert dist == expected


def test_the_compiled_form_keeps_the_fixed_order_on_clipped_and_edge_windows():
    wave = solve_profile(PAIR, 0.4, [0.7, 0.7])
    # R = 2.013 puts the window edge between nodes; R = 50 clips to the whole grid, both end nodes included
    grid = build_grid(PAIR, -4.3, 7.9, 0.02)
    state = perturbed_solitary_state(PAIR, grid, wave, 0.1, seed=8)
    ones = FieldState(np.ones(grid.count, complex), np.exp(1j * grid.x), 0.0)  # nonzero at both end nodes
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in (state, ones):
            for R in (2.013, 50.0):
                w = grid.window(R)
                assert local_seminorm(PAIR, grid, s, R) == fixed_order_seminorm(PAIR, grid, s.psi[w], s.pi[w])
        # on [-4.3, 4.1] the r_max = 5 window is clipped to the whole grid
        grid = build_grid(PAIR, -4.3, 4.1, 0.02)
        a = perturbed_solitary_state(PAIR, grid, wave, 0.1, seed=1)
        b = solitary_state(PAIR, grid, wave, np.exp(0.7j))
        assert grid.window(5.0) == slice(0, grid.count)
        assert metric_dist(PAIR, grid, a, b, 5) == full_grid_metric(PAIR, grid, a, b, 5, fixed_order_seminorm)


def test_the_potentials_and_the_metric_sum_left_to_right_where_a_compensated_sum_differs():
    # Python 3.12's sum() compensates its float sums, which 3.10 and 3.11 do not: the observer, hamiltonian and
    # the metric sum left to right on every version, so they agree with each other and with this reference
    model = ModelSpec(1.0, (OscillatorSpec(-0.3, (2.0**53, -2.0, 1.0)), OscillatorSpec(0.2, (1.0, -1.0, 0.0, 0.5)),
                            OscillatorSpec(0.5, (-(2.0**53), -2.0, 1.0))))
    grid = build_grid(model, -6.0, 6.0, 0.02)
    psi = np.array(gaussian_data(grid, 0.8 * np.exp(0.3j), 0.1, 0.7, 0.4).psi)
    psi[list(grid.oscillator_nodes)] = 0.0  # each potential is its constant term: 2^53, 1 and -2^53
    state = FieldState(psi, 0.4j * psi, 0.0)
    potentials = [potential(o, psi[i]) for o, i in zip(model.oscillators, grid.oscillator_nodes)]
    assert math.fsum(potentials) != left_to_right(potentials)
    h = trapezoid_functionals(model, grid, state)[0]
    series, _ = evolve(model, grid, state, 0.0, 0.009)
    assert series.energy[0] == hamiltonian(model, grid, state) == h

    rng = np.random.default_rng(50)

    def random_state():
        psi = (rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count)) * np.exp(-grid.x**2 / 8.0)
        psi[[0, -1]] = 0.0
        return FieldState(psi, np.roll(psi, 3) * 0.5j, 0.0)

    for _ in range(100):
        a, b = random_state(), random_state()
        diff = FieldState(a.psi - b.psi, a.pi - b.pi, 0.0)
        terms = [0.5**R * local_seminorm(model, grid, diff, float(R)) for R in range(1, 6)]
        if math.fsum(terms) != left_to_right(terms):
            break
    assert math.fsum(terms) != left_to_right(terms)
    assert metric_dist(model, grid, a, b, 5) == left_to_right(terms)
    assert metric_dist(model, grid, a, b, 5) == full_grid_metric(model, grid, a, b, 5, fixed_order_seminorm)


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


def test_metric_windows_are_found_once_per_key_and_a_clipped_one_warns_on_every_call():
    grid = build_grid(PAIR, -4.3, 4.1, 0.02)
    state = perturbed_solitary_state(PAIR, grid, solve_profile(PAIR, 0.4, [0.7, 0.7]), 0.1, seed=1)
    _window_nodes.cache_clear()
    for _ in range(3):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            metric_dist(PAIR, grid, state, state, 5)
        assert [(str(w.message), w.filename) for w in caught] == [
            ("seminorm window [-5.0, 5.0] exceeds the grid; clipping", __file__)]
    info = _window_nodes.cache_info()
    assert (info.hits, info.misses) == (2, 1)


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


@pytest.mark.parametrize("T, dt, message", [
    (math.nan, 0.02, "T must be finite"), (math.inf, 0.02, "T must be finite"), (1.0, math.nan, "CFL"),
], ids=["T-nan", "T-inf", "dt-nan"])
def test_evolve_refuses_a_non_finite_duration_or_step(T, dt, message):
    grid = build_grid(QUARTIC, -5.0, 5.0, 0.05)
    zero = FieldState(np.zeros(grid.count, complex), np.zeros(grid.count, complex), 0.0)
    with pytest.raises(ValueError, match=message):
        evolve(QUARTIC, grid, zero, T, dt)


def test_evolve_matches_out_of_place_reference():
    grid = build_grid(PAIR, -6.0, 6.0, 0.02)
    wave = solve_profile(PAIR, 0.4, [0.7, 0.7])
    state = perturbed_solitary_state(PAIR, grid, wave, 0.1, seed=3)
    _, final = evolve(PAIR, grid, state, 9.0, 0.009, observe_every=7)
    psi, pi = reference_kdk(PAIR, grid, state, 0.009, 1000)
    assert np.array_equal(final.psi.view(np.int64), psi.view(np.int64))
    assert np.array_equal(final.pi.view(np.int64), pi.view(np.int64))


def _edge_bounds(count, dx=0.25):
    """Bounds on which build_grid gives QUARTIC exactly count nodes, its oscillator at node (count - 1) // 2."""
    left = (count - 1) // 2
    return -dx * left, dx * (count - 1 - left), dx


# the kernel's passes run over 2 count floats, the stencil over 2 count - 4: 3 nodes is the smallest grid
# build_grid allows, and the counts around it put each pass below, at and above the 2-float SSE2 vector and
# its unrolled multiples
EDGE_COUNTS = (3, 4, 5, 6, 7, 17)


@pytest.mark.parametrize("model, dt, bounds", [
    (QUARTIC, 0.009, (-6.0, 6.0, 0.02)), (TRIPLE, 0.009, (-6.0, 6.0, 0.02)), (PAIR, -0.009, (-6.0, 6.0, 0.02)),
    (TRIPLE, -0.013, (-6.0, 6.0, 0.02)),
    *[(QUARTIC, dt, _edge_bounds(count)) for count in EDGE_COUNTS for dt in (0.1, -0.1)],
], ids=["one", "three", "pair-backward", "three-backward",
        *[f"nodes{count}-{way}" for count in EDGE_COUNTS for way in ("forward", "backward")]])
def test_evolve_matches_out_of_place_reference_bit_for_bit(model, dt, bounds):
    grid = build_grid(model, *bounds)
    state = gaussian_data(grid, 0.8 * np.exp(0.3j), 0.1, 0.7, 0.4)
    # observe_every = 7 does not divide 1000, so the last step's second half kick is applied after the loop
    _, final = evolve(model, grid, state, 1000 * abs(dt), dt, observe_every=7)
    psi, pi = reference_kdk(model, grid, state, dt, 1000)
    assert final.t == pytest.approx(1000 * dt, rel=1e-12)
    # the float64 views of the complex buffers agree bit for bit, signed zeros included
    assert np.array_equal(final.psi.view(np.int64), psi.view(np.int64))
    assert np.array_equal(final.pi.view(np.int64), pi.view(np.int64))
    # step runs the loop with no observer
    stepped = step(model, grid, state, dt)
    psi, pi = reference_kdk(model, grid, state, dt, 1)
    assert np.array_equal(stepped.psi.view(np.int64), psi.view(np.int64))
    assert np.array_equal(stepped.pi.view(np.int64), pi.view(np.int64))


def test_edge_bounds_give_the_node_counts():
    for count in EDGE_COUNTS:
        grid = build_grid(QUARTIC, *_edge_bounds(count))
        assert grid.count == count and grid.dx == 0.25


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


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


# the run steps each sample interval as one loop: intervals of 1 and 4 steps, one interval of all 1000 steps, and
# 1000 steps with no sample after step 0; then runs of one step and of none
@pytest.mark.parametrize("observe_every", [1, 4, 1000, 1001])
@pytest.mark.parametrize("n_steps", [0, 1, 1000])
@pytest.mark.parametrize("dt", [0.009, -0.013], ids=["forward", "backward"])
def test_sample_cadence_keeps_the_reference_bits(observe_every, n_steps, dt):
    grid = build_grid(TRIPLE, -6.0, 6.0, 0.02)
    state = gaussian_data(grid, 0.8 * np.exp(0.3j), 0.1, 0.7, 0.4)
    series, final = evolve(TRIPLE, grid, state, n_steps * abs(dt), dt, observe_every=observe_every)
    assert len(series.times) == n_steps // observe_every + 1
    nodes = list(grid.oscillator_nodes)
    psi, pi = state.psi, state.pi
    for j in range(len(series.times)):
        if j:  # the reference reads (psi, pi) alone, so it continues from the last sample bit for bit
            psi, pi = reference_kdk(TRIPLE, grid, FieldState(psi, pi, 0.0), dt, observe_every)
        assert _same_bits(series.traces_psi[j], psi[nodes]) and _same_bits(series.traces_pi[j], pi[nodes])
    psi, pi = reference_kdk(TRIPLE, grid, state, dt, n_steps)
    assert _same_bits(final.psi, psi) and _same_bits(final.pi, pi)


def test_evolve_and_step_each_make_one_library_call(monkeypatch):
    # a run's steps and samples, its intervals and its tail, are one call of the library, whatever the cadence
    lib, calls = _passes.library(), []

    def counted(name, entry):
        def call(*args):
            calls.append((name, args[1:]))
            return entry(*args)
        return call

    for name in lib.entries:
        monkeypatch.setattr(lib, name, counted(name, getattr(lib, name)))
    grid = build_grid(PAIR, -6.0, 6.0, 0.02)
    state = gaussian_data(grid, 0.8 * np.exp(0.3j), 0.1, 0.7, 0.4)
    series, final = evolve(PAIR, grid, state, 1000 * 0.009, 0.009, observe_every=7, seminorm_radii=(1.0, 2.0))
    assert calls == [("kgp_evolve", (1000,))] and len(series.times) == 143  # 142 intervals of 7 steps, a tail of 6
    calls.clear()
    assert _same_bits(step(PAIR, grid, final, 0.009).psi, reference_kdk(PAIR, grid, final, 0.009, 1)[0])
    assert calls == [("kgp_evolve", (1,))]


@pytest.mark.parametrize("noise", [-0.1, math.nan, math.inf])
def test_perturbed_solitary_state_refuses_a_negative_or_non_finite_noise_amplitude(noise):
    grid = build_grid(PAIR, -6.0, 6.0, 0.02)
    with pytest.raises(ValueError, match=f"^noise_amplitude must be finite and at least 0, got {noise}$"):
        perturbed_solitary_state(PAIR, grid, solve_profile(PAIR, 0.4, [0.7, 0.7]), noise, seed=8)


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
        # the observer and the standalone functionals evaluate the one energy form: equal bit for bit
        assert series.energy[j] == hamiltonian(PAIR, grid, s)
        assert series.charge[j] == charge(PAIR, grid, s)
        assert series.energy_norm[j] == energy_norm(PAIR, grid, s)
        for r in radii:
            assert series.seminorms[r][j] == local_seminorm(PAIR, grid, s, r)
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


@pytest.mark.parametrize("omegas", [[0.3, math.nan], [0.3, 1.0], [-1.0, 0.3]], ids=["nan", "m", "-m"])
def test_dist_to_manifold_refuses_a_frequency_outside_the_open_band(omegas):
    grid = build_grid(QUARTIC, -10.0, 10.0, 0.05)
    zero = FieldState(np.zeros(grid.count, complex), np.zeros(grid.count, complex), 0.0)
    with pytest.raises(ValueError, match=r"strictly inside \(-m, m\)"):
        dist_to_manifold(QUARTIC, grid, zero, omegas, 5)


def test_dist_to_manifold_phase_invariant():
    grid = build_grid(QUARTIC, -15.0, 15.0, 0.02)
    wave = solve_profile(QUARTIC, 0.5, [0.7])
    state = solitary_state(QUARTIC, grid, wave, phase=np.exp(1j * 1.3))
    plain = solitary_state(QUARTIC, grid, wave)
    omegas = [0.4, 0.5, 0.6]
    a = dist_to_manifold(QUARTIC, grid, state, omegas, 5)
    b = dist_to_manifold(QUARTIC, grid, plain, omegas, 5)
    assert a.dist == pytest.approx(b.dist, abs=1e-10)
