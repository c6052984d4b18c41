import math

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


def test_wide_gap_sensitivity_to_amplitude(wide_gap):
    from dataclasses import replace

    bad = replace(wide_gap, A=1.01 * wide_gap.A)
    report = verify_exact(bad)
    assert report.max_jump_residual > 1e-6


@pytest.mark.parametrize("family", ["wide_gap", "lin_deg"])
def test_verifier_checks_the_simulated_model(family, request, monkeypatch):
    # the forces come from to_model(), so a sign slip in the cubic law of the
    # model the simulator steps must break the jump conditions
    solution = request.getfixturevalue(family)
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
    assert p.gamma == pytest.approx(p.kappa3 * (1.0 / sh + ch) / sh, rel=1e-14)
    assert p.gamma == pytest.approx(3.2168, abs=1e-3)
    r = p.gamma * math.exp(-2.0 * p.kappa) / (2.0 * p.kappa - p.gamma)
    assert p.B / p.A == pytest.approx(r, rel=1e-12)
    assert p.B / p.A == pytest.approx(-0.3647, abs=1e-3)
    assert p.A == pytest.approx(0.996, abs=1e-3)


def test_linear_deg_equations_and_jumps(lin_deg):
    report = verify_exact(lin_deg)
    assert all(abs(v) <= 1e-12 for v in report.equation_residuals.values())
    assert report.max_jump_residual <= 1e-10


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
    # the omega component matches across x = L; the 3-omega component keeps
    # the printed branch mismatch, recorded as continuity_gap by the verifier
    p = lin_deg
    quarter = p.period / 4.0  # sin(omega t) = 1, sin(3 omega t) = -1 at t = T/4
    ts = np.array([quarter])
    below, _ = linear_deg_eval(p, p.L - 1e-9, ts)
    above, _ = linear_deg_eval(p, p.L + 1e-9, ts)
    sh = math.sinh(p.kappa3 * p.L)
    mismatch_3w = p.C * (1.0 / sh - sh)  # coefficient gap of the 3-omega part
    assert abs((above - below)[0] - (-mismatch_3w)) <= 1e-6
    # sampled-time max of |sin(3 omega t)| sits slightly below 1
    report = verify_exact(p)
    assert report.continuity_gap[1] == pytest.approx(abs(mismatch_3w), rel=1e-2)
    assert report.continuity_gap[0] <= 1e-5


def test_linear_deg_decay_beyond_gap(lin_deg):
    p = lin_deg
    rate = min(p.kappa, p.kappa3)
    ts = np.linspace(0.0, p.period, 9)
    scale = abs(p.A) + abs(p.B) * math.exp(2 * p.kappa * p.L) + abs(p.C / math.sinh(p.kappa3 * p.L))
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


def test_simulated_wide_gap_tracks_exact_trace(wide_gap):
    model = wide_gap.to_model()
    errs = {}
    for dx in (0.04, 0.02):
        grid = build_grid(model, -20.0, wide_gap.L + 20.0, dx)
        state = init_from(wide_gap, grid)
        series, _ = evolve(model, grid, state, 20.0, 0.4 * grid.dx, observe_every=5)
        exact = wide_gap_eval(wide_gap, 0.0, series.times)[0]
        errs[dx] = float(np.max(np.abs(series.traces_psi[:, 0].real - exact)))
        assert np.max(np.abs(series.traces_psi[:, 0].imag)) <= 1e-12
    assert errs[0.04] <= 0.05
    assert errs[0.04] / errs[0.02] >= 2.5
