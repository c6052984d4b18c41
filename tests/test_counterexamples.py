import math
from dataclasses import fields, replace

import numpy as np
import pytest

from kgpoint import counterexamples
from kgpoint.counterexamples import (
    GapTooSmall,
    NoSolution,
    init_from,
    linear_deg_construct,
    linear_deg_eval,
    verify_exact,
    wall_clip,
    wide_gap_construct,
    wide_gap_eval,
)
from kgpoint.model import check_assumptions
from kgpoint.simulator import build_grid, evolve, hamiltonian


@pytest.fixture(scope="module")
def wide_gap():
    return wide_gap_construct(1.0, math.pi, 2.0, -1.0)


@pytest.fixture(scope="module")
def lin_deg():
    return linear_deg_construct(1.0, 1.0, 0.3, 0.0, 10.0)


# ----------------------------------------------------------------- wide gap


def test_wide_gap_parameter_values(wide_gap):
    assert wide_gap.omega == pytest.approx(math.sqrt(2.0) / 3.0, rel=1e-14)
    assert wide_gap.kappa == pytest.approx(math.sqrt(7.0) / 3.0, rel=1e-14)
    assert wide_gap.k3 == pytest.approx(1.0, rel=1e-14)  # pi / L with L = pi
    assert wide_gap.A**2 == pytest.approx(0.4016, abs=2e-4)
    assert wide_gap.B == pytest.approx(-0.0764, abs=2e-4)
    assert 1.0 < 3.0 * wide_gap.omega < 3.0


def test_wide_gap_equations_and_jumps(wide_gap):
    report = verify_exact(wide_gap)
    assert report.max_jump_residual <= 1e-10
    assert all(abs(v) <= 1e-12 for v in report.equation_residuals.values())
    assert all(abs(v) <= 1e-12 for v in report.identity_residuals.values())
    assert all(report.continuity_gap[j] <= 1e-6 for j in (0, 1))


def _with_harmonics(solution, harmonics):
    """solution with its harmonics, (h, sine, rate, D) each, replaced by harmonics."""
    changed = type("Changed", (type(solution),), {"harmonics": harmonics})
    return changed(**{f.name: getattr(solution, f.name) for f in fields(solution)})


@pytest.mark.parametrize("family", ["wide_gap", "lin_deg"])
@pytest.mark.parametrize("change", ["A", (0, 0), (0, 1), (1, 0), (1, 1)],
                         ids=["A", "D_omega_0", "D_omega_1", "D_3omega_0", "D_3omega_1"])
def test_wide_gap_sensitivity_to_amplitude(family, change, request):
    # a 1 % change in A, or in any one pinned amplitude D_J of a harmonic, breaks the jump conditions
    solution = request.getfixturevalue(family)
    if change == "A":
        bad = replace(solution, A=1.01 * solution.A)
    else:
        (i, J), harmonics = change, list(solution.harmonics)
        h, sine, rate, amplitudes = harmonics[i]
        harmonics[i] = (h, sine, rate, tuple(1.01 * D if K == J else D for K, D in enumerate(amplitudes)))
        bad = _with_harmonics(solution, tuple(harmonics))
    report = verify_exact(bad)
    assert report.max_jump_residual > 1e-6


@pytest.mark.parametrize("family", ["wide_gap", "lin_deg"])
def test_verifier_checks_the_simulated_model(family, request, monkeypatch):
    # the forces come from to_model(), so a sign slip in the cubic law of the
    # model the simulator steps must break the jump conditions; a fresh copy of
    # the wave builds its one model under the slip
    solution = replace(request.getfixturevalue(family))
    cubic = counterexamples._cubic_oscillator
    monkeypatch.setattr(counterexamples, "_cubic_oscillator",
                        lambda position, alpha, beta: cubic(position, alpha, -beta))
    assert verify_exact(solution).max_jump_residual > 1e-6


def test_wide_gap_gap_too_small():
    with pytest.raises(GapTooSmall) as info:
        wide_gap_construct(1.0, 1.0, 2.0, -1.0)
    assert info.value.bound == pytest.approx(math.pi / 2**1.5, rel=1e-12)


def test_wide_gap_sign_condition():
    with pytest.raises(NoSolution):
        wide_gap_construct(1.0, math.pi, 0.0, -1.0)


def test_wide_gap_eval_structure(wide_gap):
    ts = np.linspace(0.0, 7.0, 11)
    psi0, _ = wide_gap_eval(wide_gap, 0.0, ts)
    expected = wide_gap.A * (1.0 + math.exp(-wide_gap.kappa * wide_gap.L)) * np.sin(wide_gap.omega * ts)
    assert np.max(np.abs(psi0 - expected)) <= 1e-12

    # mirror symmetry about the midpoint
    for s in (0.3, 1.1):
        a, _ = wide_gap_eval(wide_gap, wide_gap.L / 2 + s, ts)
        b, _ = wide_gap_eval(wide_gap, wide_gap.L / 2 - s, ts)
        assert np.max(np.abs(a - b)) <= 1e-12

    psi_t0, pi_t0 = wide_gap_eval(wide_gap, np.linspace(-3, 6, 50), 0.0)
    assert np.max(np.abs(psi_t0)) == 0.0
    assert np.max(np.abs(pi_t0)) > 0.0


def test_wide_gap_periodicity(wide_gap):
    xs = np.linspace(-2.0, 5.0, 40)
    a, at = wide_gap_eval(wide_gap, xs, 1.234)
    b, bt = wide_gap_eval(wide_gap, xs, 1.234 + wide_gap.period)
    assert np.max(np.abs(a - b)) <= 1e-12
    assert np.max(np.abs(at - bt)) <= 1e-12


def test_wide_gap_violates_gap_assumption(wide_gap):
    rep = check_assumptions(wide_gap.to_model())
    assert rep.a1 and rep.a2 and not rep.a3
    assert rep.details["spread_limit"] == 3.0
    assert rep.details["gaps"][0]["resonance"] == pytest.approx(math.sqrt(2.0))


def test_trig_identity_harmonic_split(wide_gap):
    # F(a sin t) recombines exactly from the collected harmonic coefficients
    p = wide_gap
    a = p.A * (1.0 + math.exp(-p.kappa * p.L))
    theta = np.linspace(0.0, 2.0 * np.pi, 101)
    direct = p.alpha * (a * np.sin(theta)) + p.beta * (a * np.sin(theta)) ** 3
    fundamental = (p.alpha * a + 0.75 * p.beta * a**3) * np.sin(theta)
    harmonic = -0.25 * p.beta * a**3 * np.sin(3.0 * theta)
    assert np.max(np.abs(direct - (fundamental + harmonic))) <= 1e-12


# ---------------------------------------------------------- linear degeneration


def test_linear_deg_parameter_chain(lin_deg):
    p = lin_deg
    assert p.kappa == pytest.approx(math.sqrt(0.91), rel=1e-14)
    assert p.kappa3 == pytest.approx(math.sqrt(0.19), rel=1e-14)
    sh, ch = math.sinh(p.kappa3), math.cosh(p.kappa3)
    assert p.gamma == pytest.approx(p.kappa3 * (1.0 + ch / sh), rel=1e-14)
    assert p.gamma == pytest.approx(1.4984, abs=1e-3)
    r = p.gamma * math.exp(-2.0 * p.kappa) / (2.0 * p.kappa - p.gamma)
    assert p.B / p.A == pytest.approx(r, rel=1e-12)
    assert p.B / p.A == pytest.approx(0.5431, abs=1e-3)
    assert p.A == pytest.approx(0.2631, abs=1e-3)


@pytest.mark.parametrize("params", [(1.0, 1.0, 0.3, 0.0, 10.0), (1.0, 3.0, 0.3, 4.0, -10.0)],
                         ids=["defaults", "L3"])  # the README's run: --L 3 --alpha 4 --beta -10
def test_linear_deg_equations_and_jumps(params):
    report = verify_exact(linear_deg_construct(*params))
    assert all(abs(v) <= 1e-12 for v in report.equation_residuals.values())
    assert report.max_jump_residual <= 1e-10
    assert all(report.continuity_gap[j] <= 1e-6 for j in (0, 1))


def test_linear_deg_preconditions():
    with pytest.raises(ValueError):
        linear_deg_construct(1.0, 1.0, 0.34, 0.0, 10.0)  # omega >= m/3
    with pytest.raises(ValueError):
        linear_deg_construct(1.0, 1.0, 0.3, 0.0, 0.0)  # beta = 0


def test_linear_deg_beta_sign_flip():
    # A^2 flips sign with beta here (alpha = 0), so no real solution remains
    with pytest.raises(NoSolution):
        linear_deg_construct(1.0, 1.0, 0.3, 0.0, -10.0)


def test_linear_deg_continuity_at_zero(lin_deg):
    ts = np.linspace(0.0, lin_deg.period, 17)
    left, _ = linear_deg_eval(lin_deg, -1e-13, ts)
    right, _ = linear_deg_eval(lin_deg, 1e-13, ts)
    assert np.max(np.abs(left - right)) <= 1e-12


def test_linear_deg_fundamental_continuous_at_gap_end(lin_deg):
    # both harmonics are continuous across x = L: the omega one at A e^{-kappa L} + B e^{kappa L}, the 3-omega one
    # at C sinh(kappa3 L), from either side
    p = lin_deg
    quarter = p.period / 4.0  # sin(omega t) = 1, sin(3 omega t) = -1 at t = T/4
    ts = np.array([quarter])
    at_gap_end = p.A * math.exp(-p.kappa * p.L) + p.B * math.exp(p.kappa * p.L) - p.C * math.sinh(p.kappa3 * p.L)
    for side in (-1e-9, 1e-9):
        value, _ = linear_deg_eval(p, p.L + side, ts)
        assert abs(value[0] - at_gap_end) <= 1e-8
    report = verify_exact(p)
    assert report.continuity_gap[1] <= 1e-6
    assert report.continuity_gap[0] <= 1e-6


def test_linear_deg_decay_beyond_gap(lin_deg):
    p = lin_deg
    rate = min(p.kappa, p.kappa3)
    ts = np.linspace(0.0, p.period, 9)
    scale = abs(p.A) + abs(p.B) * math.exp(2 * p.kappa * p.L) + abs(p.C * math.sinh(p.kappa3 * p.L))
    for x in (p.L + 0.5, p.L + 2.0, p.L + 5.0):
        psi, _ = linear_deg_eval(p, x, ts)
        assert np.max(np.abs(psi)) <= scale * math.exp(-rate * (x - p.L)) + 1e-12


def test_linear_deg_zero_at_t0(lin_deg):
    psi, _ = linear_deg_eval(lin_deg, np.linspace(-2, 4, 30), 0.0)
    assert np.max(np.abs(psi)) == 0.0


def test_linear_deg_violates_nonlinearity_assumption(lin_deg):
    # the linear oscillator (degree 1) always fails; with beta > 0 the cubic
    # one has a negative top potential coefficient and fails as well
    rep = check_assumptions(lin_deg.to_model())
    assert not rep.a2
    assert rep.details["a2_per_oscillator"][1] is False
    assert lin_deg.to_model().oscillators[1].degree == 1


# ----------------------------------------------------------------- simulator bridge


def wide_gap_energy_closed_form(p):
    # H(0) = 1/2 integral |psi_t(x, 0)|^2 dx, exponentials and sin in closed form
    E = math.exp(-p.kappa * p.L)
    envelope_sq = 2.0 / p.kappa + 2.0 * E * (1.0 / p.kappa + p.L)
    cross = 2.0 * p.k3 * (1.0 + E) / (p.kappa**2 + p.k3**2)
    return 0.5 * (
        p.omega**2 * p.A**2 * envelope_sq
        + 9.0 * p.omega**2 * p.B**2 * p.L / 2.0
        + 2.0 * (p.omega * p.A) * (3.0 * p.omega * p.B) * cross
    )


def test_init_from_state_and_energy_convergence(wide_gap):
    model = wide_gap.to_model()
    exact = wide_gap_energy_closed_form(wide_gap)
    errs = []
    for dx in (0.02, 0.01):
        grid = build_grid(model, -25.0, wide_gap.L + 25.0, dx)
        state = init_from(wide_gap, grid)
        assert np.max(np.abs(state.psi)) == 0.0
        errs.append(abs(hamiltonian(model, grid, state) - exact))
    assert errs[0] <= 1e-3
    assert errs[0] / errs[1] >= 3.0


def test_init_from_misaligned_grid(wide_gap):
    other = build_grid(wide_gap.to_model(), -5.0, wide_gap.L + 5.0, 0.02)
    shifted = linear_deg_construct(1.0, 1.0, 0.3, 0.0, 10.0)
    with pytest.raises(ValueError):
        init_from(shifted, other)  # oscillator at 1.0 is not on a pi-anchored grid


def test_wall_clip_takes_the_larger_of_psi_and_pi():
    # the end nodes' largest |psi| or |pi| over the largest anywhere, whichever field holds them
    assert wall_clip([0.1, 1.0, 0.0], [0.0, -2.0, 0.3j]) == pytest.approx(0.15, rel=1e-15)
    assert wall_clip([0.4, 2.0, 0.0], [0.0, 1.0, 0.1]) == pytest.approx(0.2, rel=1e-15)
    assert wall_clip(np.zeros(3), np.zeros(3)) == 0.0


@pytest.mark.parametrize("construct, params, half, T, dxs, bound, ratio", [
    (wide_gap_construct, (1.0, math.pi, 2.0, -1.0), 20.0, 20.0, (0.04, 0.02), 0.05, 2.5),
    (linear_deg_construct, (1.0, 1.0, 0.3, 0.0, 10.0), 20.0, 2.0, (0.02, 0.01), 1e-4, 3.0),
    (linear_deg_construct, (1.0, 3.0, 0.3, 4.0, -10.0), 30.0, 20.0, (0.02, 0.01), 1e-2, 3.0),
], ids=["wide_gap", "linear_deg", "linear_deg_L3"])
def test_simulated_wide_gap_tracks_exact_trace(construct, params, half, T, dxs, bound, ratio):
    # the trace at each oscillator, relative to its peak, within bound on the coarser grid and ratio times closer on
    # the finer
    solution = construct(*params)
    model = solution.to_model()
    errs = []
    for dx in dxs:
        grid = build_grid(model, -half, solution.L + half, dx)
        state = init_from(solution, grid)
        series, _ = evolve(model, grid, state, T, 0.4 * grid.dx, observe_every=5)
        exact = solution.eval(np.array(solution.positions)[:, None], series.times)[0]
        assert np.max(np.abs(series.traces_psi.imag)) <= 1e-12
        errs.append(np.max(np.abs(series.traces_psi.real - exact.T), axis=0) / np.max(np.abs(exact), axis=1))
    coarse, fine = errs
    assert np.all(coarse <= bound)
    assert np.all(coarse / fine >= ratio)
