import ctypes
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kgpoint import _passes, solitary
from kgpoint.model import ModelSpec, OscillatorSpec, _horner, force
from kgpoint.solitary import (
    ConvergedToZero,
    NoConvergence,
    SolitaryWave,
    amplitude_residual,
    continue_branch,
    kappa,
    profile_eval,
    solve_profile,
)

QUARTIC_MODEL = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -2.0, 1.0)),))
PAIR_MODEL = ModelSpec(
    1.0,
    (OscillatorSpec(0.0, (0.0, -2.0, 1.0)), OscillatorSpec(0.2, (0.0, -2.0, 1.0))),
)
# the reference loops' Newton limits, those of the compiled solve (MAX_ITER, RESIDUAL_TOL and ZERO_TOL in
# _passes_solve.c)
MAX_ITER = 100
RESIDUAL_TOL = 1e-11
ZERO_BRANCH_TOL = 1e-9


def residual_evaluations():
    """The library's count of residual evaluations, made by solves and by amplitude_residual alike."""
    return ctypes.c_long.in_dll(_passes.library(), "kgp_residuals").value


def reference_coupling(model, kap):
    """The rows exp(-kappa |X_J - X_K|), K = 1..N, as lists of floats: the Python coupling amplitude_residual once
    passed to the compiled residual."""
    pos = model.positions
    return [[math.exp(-kap * abs(xj - xk)) for xk in pos] for xj in pos]


def closed_form_amp_sq(omega):
    # for the quartic oscillator the amplitude equation is 2 kappa = 4 - 4 |C|^2
    return 1.0 - np.sqrt(1.0 - omega**2) / 2.0


def test_kappa_examples():
    assert kappa(QUARTIC_MODEL, 0.0) == 1.0
    assert kappa(QUARTIC_MODEL, 1.0) == 0.0
    assert kappa(QUARTIC_MODEL, -1.0) == 0.0
    assert kappa(QUARTIC_MODEL, 0.6) == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(ValueError):
        kappa(QUARTIC_MODEL, 1.0001)


@pytest.mark.parametrize("call, message", [
    (lambda: kappa(QUARTIC_MODEL, math.nan), "exceeds the mass"),
    (lambda: solve_profile(QUARTIC_MODEL, math.nan, [0.7]), "exceeds the mass"),
    (lambda: continue_branch(QUARTIC_MODEL, 0.1, 0.5, math.nan, [0.7]), "step must be positive"),
    (lambda: continue_branch(QUARTIC_MODEL, 0.1, 0.5, math.inf, [0.7]), "^step inf is not finite$"),
    (lambda: continue_branch(QUARTIC_MODEL, math.nan, 0.5, 0.1, [0.7]), "strictly inside"),
], ids=["kappa", "solve_profile", "continue_branch-step", "continue_branch-infinite-step", "continue_branch-endpoint"])
def test_a_nan_frequency_or_step_is_a_domain_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("start, end, step", [(0.0, 0.5, 1e-320), (0.4, 0.5, 1e-20)], ids=["subnormal", "repeats"])
def test_a_step_below_the_float_spacing_is_refused_before_any_solve(monkeypatch, start, end, step):
    # below 4 ulps of the larger endpoint, frequencies would repeat or their count overflow
    monkeypatch.setattr(solitary, "solve_profile", lambda *args: pytest.fail("solved"))
    with pytest.raises(ValueError, match="at or below 4 ulps"):
        continue_branch(QUARTIC_MODEL, start, end, step, [0.7])


def test_a_step_just_above_the_floor_advances_every_frequency():
    step = 4 * math.ulp(0.5) * 1.5
    waves = continue_branch(QUARTIC_MODEL, 0.5 - 8 * step, 0.5, step, [0.7])
    omegas = [w.omega for w in waves]
    assert len(omegas) >= 8 and all(a < b for a, b in zip(omegas, omegas[1:]))


def test_amplitude_residual_zero_wave():
    wave = SolitaryWave(0.37, kappa(QUARTIC_MODEL, 0.37), (0j,))
    assert np.all(amplitude_residual(QUARTIC_MODEL, wave) == 0.0)


def test_amplitude_residual_closed_form():
    wave = SolitaryWave(0.0, 1.0, (complex(1.0 / np.sqrt(2.0)),))
    assert np.max(np.abs(amplitude_residual(QUARTIC_MODEL, wave))) <= 1e-12
    off = SolitaryWave(0.0, 1.0, (1.0 + 0j,))
    assert np.max(np.abs(amplitude_residual(QUARTIC_MODEL, off))) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("omega", [-0.0, 0.0, 0.3, 0.5, 0.8])
def test_solve_profile_closed_form(omega):
    wave = solve_profile(QUARTIC_MODEL, omega, [0.7])
    # a solve is a branch of one frequency, omega + -0.0 0: omega keeps its sign, -0.0 too
    assert math.copysign(1.0, wave.omega) == math.copysign(1.0, omega)
    assert abs(wave.amplitudes[0]) ** 2 == pytest.approx(closed_form_amp_sq(omega), abs=1e-10)
    assert np.max(np.abs(amplitude_residual(QUARTIC_MODEL, wave))) <= 1e-11
    assert wave.kappa**2 + wave.omega**2 == pytest.approx(1.0, rel=1e-12)


def test_solve_profile_band_edge_returns_zero_wave():
    for model in (QUARTIC_MODEL, PAIR_MODEL):
        for omega in (1.0, -1.0):
            wave = solve_profile(model, omega, [0.7] * model.count)
            assert wave.amplitudes == (0j,) * model.count
            assert wave.kappa == 0.0
            # the compiled solve's zero row, word for word the wave formed in Python before
            parts = [wave.omega, wave.kappa, *(p for z in wave.amplitudes for p in (z.real, z.imag)), wave.residual_max]
            assert list(map(float.hex, parts)) == [omega.hex()] + ["0x0.0p+0"] * (2 * model.count + 2)


@pytest.mark.parametrize("omega", [1.0, -1.0])
@pytest.mark.parametrize("guess, message", [([math.nan, math.nan], "guess must be finite"),
                                            ([0.7], "guess must have length 2")], ids=["nan", "length"])
def test_solve_profile_checks_its_guess_at_the_band_edge(omega, guess, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_profile(PAIR_MODEL, omega, guess)


def test_solve_profile_zero_guess_flags_zero_branch():
    with pytest.raises(ConvergedToZero) as info:
        solve_profile(QUARTIC_MODEL, 0.3, [0.0])
    assert all(c == 0 for c in info.value.wave.amplitudes)


def test_solve_profile_absurd_guess_raises():
    with pytest.raises(NoConvergence):
        solve_profile(QUARTIC_MODEL, 0.3, [1e150])


def test_gauge_representative_and_invariance():
    wave = solve_profile(PAIR_MODEL, 0.4, [0.7, 0.7])
    c1 = wave.amplitudes[0]
    assert c1.imag == 0.0 and c1.real >= 0.0
    for theta in (0.8, 2.4):
        rotated = SolitaryWave(
            wave.omega, wave.kappa, tuple(c * np.exp(1j * theta) for c in wave.amplitudes)
        )
        assert np.max(np.abs(amplitude_residual(PAIR_MODEL, rotated))) <= 1e-10


def test_solve_profile_complex_guess_converges_to_gauge():
    guess = [0.7 * np.exp(1j * 1.1), 0.6 * np.exp(1j * 1.1)]
    wave = solve_profile(PAIR_MODEL, 0.4, guess)
    assert wave.amplitudes[0].imag == 0.0
    assert wave.amplitudes[0].real > 0.0


def test_profile_eval_examples():
    zero = SolitaryWave(0.2, kappa(QUARTIC_MODEL, 0.2), (0j,))
    assert profile_eval(QUARTIC_MODEL, zero, 1.23) == 0.0

    unit = SolitaryWave(0.0, 1.0, (1.0 + 0j,))
    assert profile_eval(QUARTIC_MODEL, unit, 1.0) == pytest.approx(np.exp(-1.0))
    assert profile_eval(QUARTIC_MODEL, unit, -1.0) == pytest.approx(np.exp(-1.0))

    wave = solve_profile(PAIR_MODEL, 0.4, [0.7, 0.7])
    c1, c2 = wave.amplitudes
    expected = c1 + c2 * np.exp(-wave.kappa * 0.2)
    assert profile_eval(PAIR_MODEL, wave, 0.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("count", [1, 3])
def test_profile_eval_refuses_a_wave_with_another_count_of_amplitudes(count):
    # the README pair has two oscillators: each takes an amplitude, and none is dropped
    wave = SolitaryWave(0.4, kappa(PAIR_MODEL, 0.4), (0.5 + 0.1j,) * count)
    with pytest.raises(ValueError, match=f"^the amplitude system has 2 oscillators, not {count}$"):
        profile_eval(PAIR_MODEL, wave, 0.1)


def reference_profile(model, wave, x):
    """profile_eval at the float x on Python floats: each term numpy's complex product of C_J by the float
    math.exp(-kappa |x - X_J|), (Re C e - Im C 0.0, Re C 0.0 + Im C e), added from 0.0 one oscillator after another."""
    re = im = 0.0
    for c, pos in zip(wave.amplitudes, model.positions):
        c, e = complex(c), math.exp(-wave.kappa * abs(x - pos))
        re, im = re + (c.real * e - c.imag * 0.0), im + (c.real * 0.0 + c.imag * e)
    return re, im


PROFILE_MODELS = {
    "one": ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -2.0, 1.0)),)),
    "one-at-minus-zero": ModelSpec(1.0, (OscillatorSpec(-0.0, (0.0, -2.0, 1.0)),)),
    "pair": PAIR_MODEL,
    "three": ModelSpec(1.0, (OscillatorSpec(-0.3, (0.0, -2.0, 1.0)), OscillatorSpec(-0.0, (0.0, -1.5, 1.0)),
                             OscillatorSpec(0.4, (0.0, -2.5, 1.0)))),
}


@pytest.mark.parametrize("name", sorted(PROFILE_MODELS))
def test_profile_eval_matches_its_python_float_transcription_word_for_word(name):
    # the compiled sum with libm's exp (the function math.exp calls), on the scalars and arrays profile_eval takes
    model = PROFILE_MODELS[name]
    n = model.count
    waves = [solve_profile(model, 0.4, [0.7] * n), SolitaryWave(0.4, kappa(model, 0.4), (0j,) * n),
             SolitaryWave(0.3, 0.7, tuple(complex(0.5 - j, (-1) ** j * 0.25) for j in range(n)))]
    x = np.concatenate([np.linspace(-3.0, 3.0, 601), [0.0, -0.0, 0.2, -0.3, 0.4, 1e-300, -1e300]])
    for wave in waves:
        for points in (x, x.reshape(-1, 2)[:, ::-1].T, x[::3]):  # 1-d, 2-d and strided
            got = profile_eval(model, wave, points)
            assert got.shape == points.shape and got.dtype == complex
            order = [p for v in np.asarray(points).ravel().tolist() for p in reference_profile(model, wave, v)]
            assert got.ravel().view(np.uint64).tolist() == np.array(order).view(np.uint64).tolist()
        for scalar in (0.0, -0.0, 0.2, -1.7, 3, np.float64(0.25), np.array(-0.0), np.array(0.4)):
            got = profile_eval(model, wave, scalar)
            assert type(got) is complex
            assert np.array([got.real, got.imag]).view(np.uint64).tolist() == \
                np.array(reference_profile(model, wave, float(scalar))).view(np.uint64).tolist()


def test_profile_decay_bound():
    wave = solve_profile(PAIR_MODEL, 0.4, [0.7, 0.7])
    total = sum(abs(c) for c in wave.amplitudes)
    for x in (-5.0, -2.0, 1.0, 3.0, 8.0):
        dist = min(abs(x - p) for p in PAIR_MODEL.positions)
        if x < 0.0 or x > 0.2:
            assert abs(profile_eval(PAIR_MODEL, wave, x)) <= total * np.exp(-wave.kappa * dist) + 1e-15


def test_weak_stationarity_derivative_jump():
    # phi'(X_J + 0) - phi'(X_J - 0) = -2 kappa C_J must equal -F_J(phi(X_J))
    wave = solve_profile(PAIR_MODEL, 0.4, [0.7, 0.7])
    for j, (osc, pos) in enumerate(zip(PAIR_MODEL.oscillators, PAIR_MODEL.positions)):
        jump = -2.0 * wave.kappa * wave.amplitudes[j]
        value = profile_eval(PAIR_MODEL, wave, pos)
        assert abs(jump + force(osc, value)) <= 1e-10


def test_continue_branch_matches_closed_form():
    waves = continue_branch(QUARTIC_MODEL, 0.0, 0.9, 0.1, [0.7])
    assert len(waves) == 10 and waves.collapsed_at is None
    for w in waves:
        assert abs(w.amplitudes[0]) ** 2 == pytest.approx(closed_form_amp_sq(w.omega), abs=1e-10)


def test_continue_branch_symmetric_in_omega():
    up = continue_branch(QUARTIC_MODEL, 0.0, 0.6, 0.2, [0.7])
    down = continue_branch(QUARTIC_MODEL, 0.0, -0.6, 0.2, [0.7])
    for a, b in zip(up, down):
        assert abs(a.amplitudes[0]) == pytest.approx(abs(b.amplitudes[0]), rel=1e-10)


def test_continue_branch_degenerate_step():
    waves = continue_branch(QUARTIC_MODEL, 0.5, 0.6, 0.5, [0.7])
    assert len(waves) == 1 and waves[0].omega == 0.5


def test_continue_branch_stops_at_collapse():
    # alpha(s) = 1 - 4 s: amplitude exists only for 2 kappa < 1, so marching
    # down from omega=0.95 the branch dies near omega = sqrt(3)/2
    model = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -0.5, 1.0)),))
    waves = continue_branch(model, 0.95, 0.5, 0.05, [0.2])
    assert waves, "branch should exist near the band edge"
    last = waves[-1]
    assert last.omega > 0.85
    assert waves.collapsed_at == 0.95 - 0.05 * len(waves)  # the frequency after the last solved one
    for w in waves:
        expected = (1.0 - 2.0 * w.kappa) / 4.0
        assert abs(w.amplitudes[0]) ** 2 == pytest.approx(expected, abs=1e-9)


def test_continue_branch_forms_each_frequency_as_it_reaches_it():
    # 0:0.9 in steps of 4.5e-7 is 2e6 + 1 frequencies; the zero guess collapses at the first, which ends the branch
    tracemalloc.start()
    try:
        waves = continue_branch(QUARTIC_MODEL, 0.0, 0.9, 4.5e-7, [0.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(waves) == 0 and peak < 100_000  # a list of the frequencies would take 64 MB


def test_no_convergence_carries_partial_branch():
    err = NoConvergence(0.5, 1.0, waves=[SolitaryWave(0.4, 0.9165, (1.0 + 0j,))])
    assert err.omega == 0.5 and len(err.waves) == 1


def test_wave_json_round_trip():
    wave = solve_profile(PAIR_MODEL, 0.4, [0.7, 0.7])
    again = SolitaryWave.from_json_dict(wave.to_json_dict())
    assert again == wave


def inline_curvature(coefficients, s):
    """d alpha / ds = -2 u''(s) as a loop over n (n - 1) u_n: the reference for the cached Horner form."""
    da = 0.0
    for k in range(len(coefficients) - 1, 1, -1):
        da = da * s + k * (k - 1) * coefficients[k]
    da *= -2.0
    return da


@pytest.mark.parametrize("degree", range(1, 7))
def test_curvature_horner_matches_the_inline_loop(degree):
    rng = np.random.default_rng(degree)
    for _ in range(20):
        osc = OscillatorSpec(0.0, tuple(rng.normal(size=degree + 1) * rng.choice([0.1, 1.0, 30.0])))
        for s in rng.uniform(0.0, 4.0, size=10):
            new = -2.0 * _horner(osc._curvature_coefficients, s)
            old = inline_curvature(osc.coefficients, s)
            assert new == old and np.signbit(new) == np.signbit(old)
    if degree == 1:
        assert osc._curvature_coefficients == ()
        assert np.signbit(-2.0 * _horner(osc._curvature_coefficients, 0.5))  # -0.0, as the loop gave


def numpy_scalar_residual_and_jacobian(model, kap, c, coupling, values=None):
    """The Newton residual and Jacobian on numpy scalars: the reference for the Python-float loop.

    c is a complex array and coupling is indexed coupling[j][k].  values
    holds the oscillator values psi_J; by default they are summed on float64
    scalars as the solver sums them, from 0.0, Re and Im apart, left to right.
    """
    n = model.count
    if values is None:
        values = []
        for j in range(n):
            u = v = np.float64(0.0)
            for k in range(n):
                u += np.float64(coupling[j][k]) * c[k].real
                v += np.float64(coupling[j][k]) * c[k].imag
            values.append(np.complex128(complex(u, v)))
    res = np.empty(2 * n)
    jac = np.zeros((2 * n, 2 * n))
    for j, osc in enumerate(model.oscillators):
        psi = values[j]
        u, v = psi.real, psi.imag
        s = u * u + v * v
        a = -2.0 * _horner(osc.slope_coefficients, s)
        da = inline_curvature(osc.coefficients, s)
        r = 2.0 * kap * c[j] - a * psi
        res[2 * j], res[2 * j + 1] = r.real, r.imag
        fuu, fuv, fvv = a + 2.0 * u * u * da, 2.0 * u * v * da, a + 2.0 * v * v * da
        for k in range(n):
            e = coupling[j][k]
            jac[2 * j:2 * j + 2, 2 * k:2 * k + 2] = [[-fuu * e, -fuv * e], [-fuv * e, -fvv * e]]
        jac[2 * j, 2 * j] += 2.0 * kap
        jac[2 * j + 1, 2 * j + 1] += 2.0 * kap
    return res, jac


def residual_and_jacobian(probe, model, kap, c, coupling):
    """The solver's residual and Jacobian, composed from its two halves, as arrays."""
    res, slopes = probe.residual(model, kap, [complex(z) for z in c], coupling)
    return np.array(res), np.array(probe.jacobian(kap, coupling, slopes))


def test_residual_and_jacobian_match_the_numpy_scalar_loop(probe):
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        positions = np.cumsum(rng.uniform(0.1, 1.0, size=n))
        model = ModelSpec(1.0, tuple(OscillatorSpec(float(x), tuple(rng.normal(size=int(rng.integers(2, 8)))))
                                     for x in positions))
        kap = float(rng.uniform(0.0, 1.0))
        coupling = reference_coupling(model, kap)
        # 1e150 makes runaway iterates: overflow to inf and nan, which the caller must see
        c = (rng.normal(size=n) + 1j * rng.normal(size=n)) * rng.choice([1e-3, 1.0, 1e3, 1e150])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = numpy_scalar_residual_and_jacobian(model, kap, c, coupling)
        for got, want in zip(residual_and_jacobian(probe, model, kap, c, coupling), expected):
            assert np.array_equal(got, want, equal_nan=True)
            finite = np.isfinite(want)
            assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))


def test_sup_norm_matches_numpy_bit_for_bit(probe):
    rng = np.random.default_rng(7)
    cases = [np.array([-0.0, -0.0]), np.array([0.0, -0.0, 0.0, -0.0]),
             np.array([np.inf, np.nan]), np.array([np.nan, -np.inf]), np.array([1.0, -np.inf, np.nan, 2.0])]
    for n in (2, 4, 6, 8):
        x = rng.normal(size=n) * rng.choice([1e-12, 1.0, 1e300], size=n)
        cases.append(x)
        for i in range(n):
            for special in (np.nan, -np.nan, np.inf, -np.inf, -0.0):
                y = x.copy()
                y[i] = special
                cases.append(y)
    for x in cases:
        assert np.float64(probe.sup_norm(x)).tobytes() == np.max(np.abs(x)).tobytes(), x


@pytest.mark.parametrize("model, omega", [(QUARTIC_MODEL, 0.5), (PAIR_MODEL, 0.4), (PAIR_MODEL, -0.9)])
def test_amplitude_residual_is_the_newton_residual(probe, model, omega):
    wave = solve_profile(model, omega, [0.7] * model.count)
    res, _ = residual_and_jacobian(probe, model, wave.kappa, wave.amplitudes, reference_coupling(model, wave.kappa))
    assert np.array_equal(amplitude_residual(model, wave), res)
    assert wave.residual_max == float(np.max(np.abs(res)))  # what the solve found at its last amplitudes


@pytest.mark.parametrize("model", [QUARTIC_MODEL, PAIR_MODEL], ids=["one", "two"])
@pytest.mark.parametrize("omega", [0.0, 0.3, 0.95, 1.0, -1.0])
def test_amplitude_residual_forms_the_coupling_as_the_python_coupling_did(probe, model, omega):
    # amplitude_residual once passed Python's coupling rows and 2 kappa to the compiled residual; it now forms both
    # as the solve does, at the band's edges too, where the solve itself stops before the coupling
    amps = [complex(0.7 - 0.4 * j, 0.2 + 0.1 * j) for j in range(model.count)]
    kap = kappa(model, omega)
    want, _ = probe.residual(model, kap, amps, reference_coupling(model, kap))
    got = amplitude_residual(model, SolitaryWave(omega, kap, tuple(amps)))
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


def test_amplitude_residual_refuses_a_frequency_beyond_the_band():
    wave = SolitaryWave(1.0000000000000002, 0.0, (0.7 + 0j,))
    with pytest.raises(ValueError, match="^[|]omega[|]=1.0000000000000002 exceeds the mass 1.0$"):
        amplitude_residual(QUARTIC_MODEL, wave)
    with pytest.raises(ValueError, match="exceeds the mass"):
        _passes.residual(QUARTIC_MODEL, math.nan, [0.7 + 0j])


def test_overflowing_amplitudes_give_non_finite_residuals_without_a_warning():
    # at 1.7e308 the coupling product overflows; the solver and amplitude_residual ignore it
    wave = SolitaryWave(0.4, kappa(PAIR_MODEL, 0.4), (1.7e308 + 0j,) * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.any(np.isfinite(amplitude_residual(PAIR_MODEL, wave)))
        with pytest.raises(NoConvergence):
            solve_profile(PAIR_MODEL, 0.4, [1.7e308] * 2)


@pytest.mark.parametrize("guess", [[1.7e308 * (1 + 1j)] * 2, [1.7e308, 1.7e308 * (1 + 1j)]], ids=["both", "second"])
def test_a_guess_whose_modulus_overflows_is_no_convergence(guess):
    # |1.7e308 (1 + i)| overflows, which Python's abs reports by OverflowError and numpy's by inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence) as info:
            solve_profile(PAIR_MODEL, 0.4, guess)
    assert not math.isfinite(info.value.residual)


def test_solve_profile_and_continue_branch_make_no_numpy_call(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} used inside a profile solve")

    want = solve_profile(PAIR_MODEL, 0.4, [0.7, 0.7])
    monkeypatch.setattr(solitary, "np", NoNumpy())
    assert solitary.solve_profile(PAIR_MODEL, 0.4, [0.7, 0.7]) == want
    waves = solitary.continue_branch(PAIR_MODEL, 0.0, 0.1, 0.01, [0.7, 0.7])
    assert len(waves) == 11 and all(w.residual_max <= RESIDUAL_TOL for w in waves)


def system_tolerance(a, x):
    """The float64 gap allowed between two backward-stable solutions of a x = b: 64 n eps cond(a) |x|."""
    return 64 * len(x) * np.finfo(float).eps * np.linalg.cond(a, np.inf) * np.max(np.abs(x))


@pytest.mark.parametrize("n", range(1, 5))
def test_elimination_matches_numpy_solve_on_gauged_systems(probe, n):
    rng = np.random.default_rng(40 + n)
    for case in range(60):
        positions = np.cumsum(rng.uniform(0.05, 1.0, size=n))
        model = ModelSpec(1.0, tuple(OscillatorSpec(float(x), (0.0, 1.0)) for x in positions))
        kap = float(rng.uniform(0.05, 1.0))
        slopes = [tuple(rng.normal(size=3) * rng.choice([0.1, 1.0, 10.0])) for _ in range(n)]
        if case % 3 == 0 and n > 1:  # fuu_1 = 2 kappa: Jacobian entry (0, 0) is exactly 0 and a row swap is forced
            slopes[0] = (2.0 * kap, *slopes[0][1:])
        jac = probe.jacobian(kap, reference_coupling(model, kap), slopes)
        jac[1] = [0.0] * (2 * n)
        jac[1][1] = 1.0
        if case % 3 == 0 and n > 1:
            assert jac[0][0] == 0.0
        b = list(rng.normal(size=2 * n))
        want = np.linalg.solve(jac, b)
        got = probe.solve_linear([row.copy() for row in jac], b.copy())
        assert np.max(np.abs(np.array(got) - want)) <= system_tolerance(np.array(jac), want), (n, case)


def test_elimination_swaps_rows_and_refuses_a_singular_matrix(probe):
    assert probe.solve_linear([[0.0, 2.0], [3.0, 0.0]], [4.0, 6.0]) == [2.0, 2.0]
    with pytest.raises(ZeroDivisionError):
        probe.solve_linear([[0.0, 1.0], [0.0, 2.0]], [1.0, 1.0])
    with pytest.raises(ZeroDivisionError):
        probe.solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


def test_elimination_matches_the_python_float_reference_bit_for_bit(probe):
    # ties in a pivot column must pick the first largest entry, as the Python-float loop did
    rng = np.random.default_rng(44)
    for case in range(400):
        w = 2 * int(rng.integers(1, 5))
        a = rng.normal(size=(w, w)) * rng.choice([1e-3, 1.0, 1e3])
        if case % 2 and w > 1:
            k = int(rng.integers(0, w - 1))
            a[int(rng.integers(k + 1, w)), k] = -a[k, k] if rng.random() < 0.5 else a[k, k]
        b = list(rng.normal(size=w))
        want = reference_solve_linear(a.tolist(), b)
        assert np.array_equal(np.array(probe.solve_linear(a.tolist(), b)).view(np.int64),
                              np.array(want).view(np.int64)), case


def test_a_converged_start_evaluates_the_residual_at_the_start_and_at_the_returned_amplitudes():
    wave = solve_profile(PAIR_MODEL, 0.4, [0.7, 0.7])
    before = residual_evaluations()
    assert solve_profile(PAIR_MODEL, 0.4, wave.amplitudes) == wave
    assert residual_evaluations() - before == 2


def test_an_exactly_singular_newton_system_is_no_convergence():
    # u = -7 s + s^2 at omega = 0 (kappa 1) and C = 1: alpha = 10, d alpha / ds = -4, so fuu = 10 - 8 = 2 kappa
    # exactly and the gauged Jacobian [[0, 0], [0, 1]] is singular while the residual is -8
    model = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -7.0, 1.0)),))
    with pytest.raises(NoConvergence) as info:
        solve_profile(model, 0.0, [1.0])
    assert info.value.residual == 8.0


def python_modulus(z):
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def reference_gauge_rotate(amps):
    """The phase gauge in Python complex arithmetic: the first nonzero amplitude c becomes |c|, the rest turn by conj(c)/|c|."""
    for idx, c in enumerate(amps):
        r = python_modulus(c)
        if r > 0.0:
            turn = complex(c.real / r, -c.imag / r)
            return [complex(r, 0.0) if i == idx else z * turn for i, z in enumerate(amps)]
    return list(amps)


def reference_residual_and_jacobian(model, kap, c, coupling):
    """Residual and Jacobian on Python floats, out of place: the solver's arithmetic written entry by entry."""
    n = model.count
    res = [0.0] * (2 * n)
    jac = [[0.0] * (2 * n) for _ in range(2 * n)]
    for j, osc in enumerate(model.oscillators):
        u = v = 0.0
        for k in range(n):
            u = u + coupling[j][k] * c[k].real
            v = v + coupling[j][k] * c[k].imag
        s = u * u + v * v
        a = -2.0 * _horner(osc.slope_coefficients, s)
        da = inline_curvature(osc.coefficients, s)
        res[2 * j] = 2.0 * kap * c[j].real - a * u
        res[2 * j + 1] = 2.0 * kap * c[j].imag - a * v
        fuu, fuv, fvv = a + 2.0 * u * u * da, 2.0 * u * v * da, a + 2.0 * v * v * da
        for k in range(n):
            e = coupling[j][k]
            jac[2 * j][2 * k], jac[2 * j][2 * k + 1] = -fuu * e, -fuv * e
            jac[2 * j + 1][2 * k], jac[2 * j + 1][2 * k + 1] = -fuv * e, -fvv * e
        jac[2 * j][2 * j] = jac[2 * j][2 * j] + 2.0 * kap
        jac[2 * j + 1][2 * j + 1] = jac[2 * j + 1][2 * j + 1] + 2.0 * kap
    return res, jac


def reference_solve_linear(a, b):
    """Gaussian elimination with partial pivoting (first largest modulus), out of place; a zero pivot raises."""
    n = len(b)
    a, b = [list(row) for row in a], list(b)
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(a[i][k]) > abs(a[p][k]):
                p = i
        if a[p][k] == 0.0:
            raise ZeroDivisionError("singular matrix")
        a[k], a[p], b[k], b[p] = a[p], a[k], b[p], b[k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = a[i][:k + 1] + [a[i][j] - f * a[k][j] for j in range(k + 1, n)]
            b[i] = b[i] - f * b[k]
    x = [0.0] * n
    for k in reversed(range(n)):
        acc = b[k]
        for j in range(k + 1, n):
            acc = acc - a[k][j] * x[j]
        x[k] = acc / a[k][k]
    return x


def reference_solve_profile(model, omega, guess):
    """Out-of-place transcription of the Python-float damped Newton loop, its reference bit for bit.

    Coupling from math.exp, the residual and Jacobian of the Python-float
    loop above, a fresh gauged Jacobian, elimination with partial pivoting,
    trial iterates C + scale delta formed part by part; an iterate with a
    non-finite residual fails at once, and so does a zero pivot.
    """
    m = model.mass
    if not abs(omega) <= m:
        raise ValueError(f"|omega|={abs(omega)} exceeds the mass {m}")
    if abs(omega) == m:
        return SolitaryWave(float(omega), kappa(model, omega), (0j,) * model.count, 0.0)
    c = [complex(z) for z in guess]
    if len(c) != model.count:
        raise ValueError(f"guess must have length {model.count}")
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in c):
        raise ValueError("guess must be finite")
    c = reference_gauge_rotate(c)
    kap = math.sqrt(max(m * m - omega * omega, 0.0))
    pos = model.positions
    coupling = [[math.exp(-kap * abs(xj - xk)) for xk in pos] for xj in pos]

    def gauged(res, c):
        return [c[0].imag if i == 1 else r for i, r in enumerate(res)]

    def sup(x):
        return float(np.max(np.abs(x)))

    res, jac = reference_residual_and_jacobian(model, kap, c, coupling)
    for _ in range(MAX_ITER):
        if sup(res) <= RESIDUAL_TOL:
            break
        if not math.isfinite(sup(res)):
            raise NoConvergence(omega, sup(res))
        g = gauged(res, c)
        jg = [[float(i == 1) for i in range(len(row))] if r == 1 else row for r, row in enumerate(jac)]
        try:
            delta = reference_solve_linear(jg, [-x for x in g])
        except ZeroDivisionError:
            raise NoConvergence(omega, sup(res))
        norm_old = sup(g)
        scale = 1.0
        for _ in range(8):
            c_try = [complex(z.real + scale * delta[2 * k], z.imag + scale * delta[2 * k + 1]) for k, z in enumerate(c)]
            res_try, jac_try = reference_residual_and_jacobian(model, kap, c_try, coupling)
            if sup(gauged(res_try, c_try)) < norm_old:
                break
            scale *= 0.5
        c, res, jac = c_try, res_try, jac_try
    else:
        raise NoConvergence(omega, sup(res))
    c = reference_gauge_rotate(c)
    final = sup(reference_residual_and_jacobian(model, kap, c, coupling)[0])
    if final > RESIDUAL_TOL:
        raise NoConvergence(omega, final)
    if max(map(python_modulus, c)) <= ZERO_BRANCH_TOL:
        raise ConvergedToZero(SolitaryWave(float(omega), kap, (0j,) * model.count, 0.0))
    return SolitaryWave(float(omega), kap, tuple(c), final)


def array_gauge_rotate(amps):
    """The phase gauge on a complex array: the first nonzero amplitude becomes real >= 0."""
    for idx, c in enumerate(amps):
        if abs(c) > 0.0:
            rotated = amps * (c.conjugate() / abs(c))
            rotated[idx] = abs(c)
            return rotated
    return amps


@np.errstate(over="ignore", invalid="ignore")
def array_solve_profile(model, omega, guess):
    """The damped Newton loop on numpy arrays, with np.linalg.solve: the solver before it ran on Python floats.

    Complex amplitude arrays, the coupling product coupling @ c, the
    residual and Jacobian of the numpy-scalar loop, a copied Jacobian with
    its gauge row, the step delta[0::2] + 1j delta[1::2] and trial iterates
    c + scale * step; an iterate with a non-finite residual fails at once.
    """
    m = model.mass
    if not abs(omega) <= m:
        raise ValueError(f"|omega|={abs(omega)} exceeds the mass {m}")
    if abs(omega) == m:
        return SolitaryWave(float(omega), kappa(model, omega), (0j,) * model.count, 0.0)
    c = np.asarray(list(guess), dtype=complex)
    if c.shape != (model.count,):
        raise ValueError(f"guess must have length {model.count}")
    if not np.all(np.isfinite(c)):
        raise ValueError("guess must be finite")
    c = array_gauge_rotate(c)
    kap = float(np.sqrt(max(m * m - omega * omega, 0.0)))
    pos = np.asarray(model.positions)
    coupling = np.exp(-kap * np.abs(pos[:, None] - pos[None, :]))

    def residual_and_jacobian(c):
        return numpy_scalar_residual_and_jacobian(model, kap, c, coupling, coupling @ c)

    def gauged(res, c):
        g = res.copy()
        g[1] = c[0].imag
        return g

    def sup(x):
        return float(np.max(np.abs(x)))

    res, jac = residual_and_jacobian(c)
    for _ in range(MAX_ITER):
        if sup(res) <= RESIDUAL_TOL:
            break
        if not np.isfinite(sup(res)):
            raise NoConvergence(omega, sup(res))
        g = gauged(res, c)
        jg = jac.copy()
        jg[1, :] = 0.0
        jg[1, 1] = 1.0
        try:
            delta = np.linalg.solve(jg, -g)
        except np.linalg.LinAlgError:
            raise NoConvergence(omega, sup(res))
        step = delta[0::2] + 1j * delta[1::2]
        norm_old = sup(g)
        scale = 1.0
        for _ in range(8):
            c_try = c + scale * step
            res_try, jac_try = residual_and_jacobian(c_try)
            if sup(gauged(res_try, c_try)) < norm_old:
                break
            scale *= 0.5
        c, res, jac = c_try, res_try, jac_try
    else:
        raise NoConvergence(omega, sup(res))
    c = array_gauge_rotate(c)
    final = sup(residual_and_jacobian(c)[0])
    if final > RESIDUAL_TOL:
        raise NoConvergence(omega, final)
    if np.max(np.abs(c)) <= ZERO_BRANCH_TOL:
        raise ConvergedToZero(SolitaryWave(float(omega), kap, (0j,) * model.count, 0.0))
    return SolitaryWave(float(omega), kap, tuple(c), final)


def _outcome(solve, model, omega, guess):
    try:
        return solve(model, omega, guess)
    except (NoConvergence, ConvergedToZero, ValueError) as err:
        return type(err)


def _bits(wave):
    """The wave's float64 words: amplitudes, kappa and residual_max, signed zeros included."""
    amps = np.asarray(wave.amplitudes, dtype=complex).view(np.float64)
    return np.concatenate([amps, [wave.kappa, wave.residual_max]]).view(np.int64).tolist()


def oracle_cases():
    """360 seeded (case, model, omega, guess): wells with waves, random potentials, band edges, huge guesses."""
    rng = np.random.default_rng(12)
    for case in range(360):
        n = int(rng.integers(1, 5))
        positions = np.cumsum(rng.uniform(0.05, 1.0, size=n))
        if rng.random() < 0.6:  # focusing quartic wells: solitary waves exist
            coefficients = [(0.0, -float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.3, 2.0))) for _ in range(n)]
        else:
            coefficients = [tuple(rng.normal(size=int(rng.integers(2, 6)))) for _ in range(n)]
        model = ModelSpec(1.0, tuple(OscillatorSpec(float(x), cs) for x, cs in zip(positions, coefficients)))
        omega = float(rng.choice([rng.uniform(-0.99, 0.99), 0.0, 1.0])) if case % 10 == 0 \
            else float(rng.uniform(-0.99, 0.99))
        kind = rng.choice(["real", "complex", "zero", "1e150", "1.7e308"], p=[0.4, 0.3, 0.1, 0.1, 0.1])
        if kind == "real":
            guess = list(rng.uniform(0.1, 1.5, size=n))
        elif kind == "complex":
            guess = list((rng.normal(size=n) + 1j * rng.normal(size=n)) * rng.choice([0.3, 1.0, 3.0]))
        elif kind == "zero":
            guess = [0.0] * n
        else:
            big = float(kind)
            guess = [big * complex(*rng.choice([(1.0, 0.0), (0.6, 0.8), (-1.0, 0.0)])) for _ in range(n)]
        yield case, model, omega, guess


def test_solve_profile_matches_the_python_float_newton_loop_bit_for_bit():
    outcomes = {}
    for case, model, omega, guess in oracle_cases():
        got = _outcome(solve_profile, model, omega, guess)
        want = _outcome(reference_solve_profile, model, omega, guess)
        if isinstance(want, SolitaryWave):
            assert isinstance(got, SolitaryWave), (case, got)
            assert got == want and got.residual_max == want.residual_max, case
            assert _bits(got) == _bits(want), case
            outcomes["wave"] = outcomes.get("wave", 0) + 1
        else:
            assert got is want, (case, got, want)
            outcomes[want.__name__] = outcomes.get(want.__name__, 0) + 1
    # every path is exercised: solved waves, collapses and failures
    assert outcomes["wave"] >= 100 and outcomes["ConvergedToZero"] >= 10 and outcomes["NoConvergence"] >= 30, outcomes


def test_a_solve_that_reaches_the_iteration_cap_fails_with_the_reference_loops_residual():
    # these oracle cases neither converge nor overflow: each runs all MAX_ITER iterations and fails with the last
    # iterate's residual, which a cap of one iteration fewer changes in every case
    capped = (27, 186, 219, 231, 249)
    for case, model, omega, guess in oracle_cases():
        if case in capped:
            with pytest.raises(NoConvergence) as got:
                solve_profile(model, omega, guess)
            with pytest.raises(NoConvergence) as want:
                reference_solve_profile(model, omega, guess)
            assert _word(got.value.residual) == _word(want.value.residual), case


# Set before the solve left numpy: two solves that both stop at residual <= 1e-11 may differ by about
# |J^-1| 1e-11 in their amplitudes, so 1e-10 (relative to max(1, max |C|)) allows |J^-1| up to 5.
ARRAY_LOOP_TOL = 1e-10
# The oracle cases whose outcome differs from the numpy array loop's: (its outcome, the solver's).
ARRAY_LOOP_OUTCOME_CHANGES = {293: (NoConvergence, ConvergedToZero)}


def test_solve_profile_agrees_with_the_numpy_array_loop():
    changes = {}
    for case, model, omega, guess in oracle_cases():
        got = _outcome(solve_profile, model, omega, guess)
        want = _outcome(array_solve_profile, model, omega, guess)
        if isinstance(want, SolitaryWave):  # a wave the array loop finds is never lost
            assert isinstance(got, SolitaryWave), (case, got)
            assert got.omega == want.omega and got.kappa == want.kappa, case
            scale = max(1.0, max(abs(z) for z in want.amplitudes))
            gap = max(abs(x - y) for x, y in zip(got.amplitudes, want.amplitudes))
            assert gap <= ARRAY_LOOP_TOL * scale and got.residual_max <= RESIDUAL_TOL, (case, gap)
        elif got is not want:
            changes[case] = (want, SolitaryWave if isinstance(got, SolitaryWave) else got)
    assert changes == ARRAY_LOOP_OUTCOME_CHANGES


@pytest.mark.parametrize("guess", [[math.nan], [math.inf], [complex(0.7, math.nan)], [complex(-math.inf, 0.0)]],
                         ids=["nan", "inf", "nan-imaginary", "minus-inf"])
def test_solve_profile_refuses_a_non_finite_guess(guess):
    with pytest.raises(ValueError, match="guess must be finite"):
        solve_profile(QUARTIC_MODEL, 0.4, guess)


def test_a_non_finite_residual_fails_at_once():
    # 1.7e308 is finite, but its coupling sum overflows: the first residual is not finite
    before = residual_evaluations()
    with pytest.raises(NoConvergence) as info:
        solve_profile(PAIR_MODEL, 0.4, [1.7e308] * 2)
    assert residual_evaluations() - before == 1 and not math.isfinite(info.value.residual)


def plain_warm_start_branch(model, omegas, guess, solve=solve_profile):
    """Continuation from the warm start alone: each solve starts at the last solved amplitudes."""
    waves, current = [], list(guess)
    for w in omegas:
        try:
            wave = solve(model, w, current)
        except ConvergedToZero:
            return waves, None
        except NoConvergence:
            return waves, w
        waves.append(wave)
        current = wave.amplitudes
    return waves, None


def secant_start(prev, last, r):
    """last + r (last - prev) for complex amplitudes and a float r, with r times a complex spelled out as
    CPython 3.10-3.12 compute it, as the complex r + 0j: (r dr - 0.0 di, r di + 0.0 dr).  Python 3.14
    multiplies each part by r alone, which can change the sign of a zero."""
    out = []
    for a, b in zip(prev, last):
        dr, di = b.real - a.real, b.imag - a.imag
        out.append(complex(b.real + (r * dr - 0.0 * di), b.imag + (r * di + 0.0 * dr)))
    return out


def reference_continue_branch(model, omega_start, omega_end, step, guess, solve=solve_profile):
    """continue_branch's loop on Python floats, one solve call a start: the oracle of the compiled branch.

    The arguments are continue_branch's, already checked.  Returns (waves,
    collapsed_at, failed_at, residual), the last the failed solve's;
    ValueError propagates.
    """
    span = omega_end - omega_start
    direction = 1.0 if span >= 0 else -1.0
    waves, current = [], list(guess)
    for k in range(math.floor(abs(span) / step + 1e-12) + 1):
        w = omega_start + direction * step * k
        starts = [current]
        if len(waves) >= 2:
            prev, last = waves[-2], waves[-1]
            starts.insert(0, secant_start(prev.amplitudes, last.amplitudes,
                                          (w - last.omega) / (last.omega - prev.omega)))
        try:
            for start in starts[:-1]:
                try:
                    wave = solve(model, w, start)
                    break
                except (NoConvergence, ConvergedToZero):
                    pass
            else:
                wave = solve(model, w, starts[-1])
        except ConvergedToZero:
            return waves, w, None, None
        except NoConvergence as err:
            return waves, None, w, err.residual
        waves.append(wave)
        current = wave.amplitudes
    return waves, None, None, None


def branch_outcome(model, a, b, step, guess):
    try:
        return continue_branch(model, a, b, step, guess), None
    except NoConvergence as err:
        return err.waves, err.omega


def branch_omegas(a, b, step):
    k_max = int(np.floor(abs(b - a) / step + 1e-12))
    return [a + (1.0 if b >= a else -1.0) * step * k for k in range(k_max + 1)]


COLLAPSE_MODEL = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -0.5, 1.0)),))


@pytest.mark.parametrize("failure", [NoConvergence, ConvergedToZero])
@pytest.mark.parametrize("model, a, b, guess, fail_from", [
    (PAIR_MODEL, 0.0, 0.95, [0.7, 0.7], None),
    (PAIR_MODEL, 0.0, 0.95, [0.7, 0.7], 0.5),  # from omega = 0.5 on every start fails
    (COLLAPSE_MODEL, 0.95, 0.5, [0.2], None),
], ids=["readme", "readme-fails", "collapse"])
def test_a_failing_secant_start_falls_back_on_the_plain_warm_start(failure, model, a, b, guess, fail_from):
    # on the reference loop, which calls the solve it is given; the compiled branch matches it bit for bit
    solved = []

    def plain_starts_only(model, omega, start):
        if fail_from is not None and omega >= fail_from:
            raise NoConvergence(omega, 1.0)
        if solved and list(start) != list(solved[-1].amplitudes):  # the secant start
            if failure is NoConvergence:
                raise NoConvergence(omega, 1.0)
            raise ConvergedToZero(solitary._zero_wave(model, omega))
        wave = solve_profile(model, omega, start)
        solved.append(wave)
        return wave

    want_waves, want_failed = plain_warm_start_branch(model, branch_omegas(a, b, 0.01), guess, plain_starts_only)
    solved.clear()
    got_waves, _, got_failed, _ = reference_continue_branch(model, a, b, 0.01, guess, plain_starts_only)
    assert got_failed == want_failed and (got_failed is None) == (fail_from is None)
    assert [w.omega for w in got_waves] == [w.omega for w in want_waves]
    assert [_bits(w) for w in got_waves] == [_bits(w) for w in want_waves]
    assert len(got_waves) >= 3  # the secant start was tried


@pytest.mark.parametrize("model, a, b, guess", [
    (PAIR_MODEL, 0.0, 0.95, [0.7, 0.7]),  # the README model
    (COLLAPSE_MODEL, 0.95, 0.5, [0.2]),
], ids=["readme", "collapse"])
def test_secant_branch_agrees_with_the_plain_warm_start_branch(model, a, b, guess):
    omegas = branch_omegas(a, b, 0.001)
    want, want_failed = plain_warm_start_branch(model, omegas, guess)
    got, got_failed = branch_outcome(model, a, b, 0.001, guess)
    assert got_failed is None and want_failed is None
    assert len(got) == len(want) and len(want) >= 80
    assert [w.omega for w in got] == [w.omega for w in want]
    assert all(w.residual_max <= RESIDUAL_TOL for w in got)
    diff = max(abs(x - y) for u, v in zip(got, want) for x, y in zip(u.amplitudes, v.amplitudes))
    assert diff <= 1e-9


def test_secant_start_costs_at_most_3_1_residual_evaluations_per_point():
    before = residual_evaluations()
    waves = continue_branch(PAIR_MODEL, 0.0, 0.95, 0.001, [0.7, 0.7])
    assert len(waves) == 951
    assert (residual_evaluations() - before) / len(waves) <= 3.1


ONE_WELL_MODEL = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -1.0, 0.5)),))
THREE_WELL_MODEL = ModelSpec(1.0, (
    OscillatorSpec(0.0, (0.0, -1.066307450723016, 0.4696547583959826)),
    OscillatorSpec(1.4969677216590898, (0.0, -2.1105434142980832, 1.4392946314338502)),
    OscillatorSpec(2.6275900211909926, (0.0, -2.141119407128387, 0.37525600502653006)),
))
OCTIC_MODEL = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, 0.9865326091419453, -1.3967605490797737,
                                                   -0.5892757772321628, 0.8943271169619827)),))
Z, F = ConvergedToZero, NoConvergence


@pytest.mark.parametrize("model, a, b, step, guess, solved, collapsed_at, failed_at, failures", [
    (PAIR_MODEL, 0.0, 0.95, 0.001, [0.7, 0.7], 951, None, None, []),
    (PAIR_MODEL, 0.5, -0.5, 0.01, [0.7, 0.7], 101, None, None, []),
    # the secant start collapses at 0.866 and 0.865, and the warm start recovers, until both collapse
    (COLLAPSE_MODEL, 0.95, 0.0, 0.001, [0.2], 86, 0.864, None, [(0.866, Z), (0.865, Z), (0.864, Z), (0.864, Z)]),
    (ONE_WELL_MODEL, 0.0, 0.95, 0.001, [0.7], 36, 0.036000000000000004, None,
     [(0.002, Z), (0.036000000000000004, Z), (0.036000000000000004, Z)]),
    (THREE_WELL_MODEL, 0.99, 0.2, 0.2, [0.7] * 3, 4, None, None, [(0.59, F)]),
    (OCTIC_MODEL, 0.99, 0.2, 0.05, [1.0], 4, None, 0.79, [(0.79, F), (0.79, F)]),
    (PAIR_MODEL, 0.0, 0.95, 0.01, [0.0, 0.0], 0, 0.0, None, [(0.0, Z)]),  # kgpoint solve --guess 0,0
    (QUARTIC_MODEL, 0.0, 0.5, 0.1, [1e150], 0, None, 0.0, [(0.0, F)]),  # kgpoint solve --guess 1e150
    # the last frequency formed is the mass itself, whose zero wave solve_profile returns unsolved
    (PAIR_MODEL, 0.0, math.nextafter(1.0, 0.0), 0.5, [0.7, 0.7], 3, None, None, []),
], ids=["readme-up", "readme-down", "collapse", "one-well", "three-wells", "octic-fails", "first-collapse",
        "first-failure", "band-edge"])
def test_the_compiled_branch_matches_the_reference_loop_bit_for_bit(model, a, b, step, guess, solved, collapsed_at,
                                                                     failed_at, failures):
    failed = []

    def recorded(model, omega, start):
        try:
            return solve_profile(model, omega, start)
        except (NoConvergence, ConvergedToZero) as err:
            failed.append((omega, type(err)))
            raise

    want_waves, *want = reference_continue_branch(model, a, b, step, guess, recorded)
    assert (len(want_waves), want[0], want[1], failed) == (solved, collapsed_at, failed_at, failures)
    try:
        branch = continue_branch(model, a, b, step, guess)
        got = [branch.collapsed_at, None, None]
    except NoConvergence as err:
        branch, got = err.waves, [None, err.omega, err.residual]
    assert [[_word(w.omega), *_bits(w)] for w in branch] == [[_word(w.omega), *_bits(w)] for w in want_waves]
    assert list(map(_word, got)) == list(map(_word, want))
    # the rows the command writes, as it formed them from the waves before the branch carried them
    assert bytes(branch.rows) == np.array(
        [[w.omega, w.kappa, *(p for c in w.amplitudes for p in (c.real, c.imag)), w.residual_max] for w in want_waves],
        dtype=float).tobytes()


def _word(x):
    """The float64 word of x, its sign of zero included; None for None."""
    return None if x is None else int(np.array(x, dtype=float).view(np.int64))


def test_a_frequency_past_the_mass_is_the_reference_loops_value_error():
    # k_max rounds 2 - 2^-52 up to 2, whose frequency is a float above the mass
    args = (PAIR_MODEL, 0.0, math.nextafter(1.0, 0.0), math.nextafter(0.5, 1.0), [0.7, 0.7])
    with pytest.raises(ValueError) as want:
        reference_continue_branch(*args)
    with pytest.raises(ValueError) as got:
        continue_branch(*args)
    assert str(got.value) == str(want.value) == "|omega|=1.0000000000000002 exceeds the mass 1.0"


def test_a_start_the_compiled_branch_finds_not_finite_is_the_guess_refusal(monkeypatch):
    # solve_profile refused a secant start that overflowed as a guess that is not finite; test_passes checks that
    # the compiled branch reports it
    monkeypatch.setattr(_passes, "branch", lambda *args: (_passes.NOT_FINITE, np.empty((0, 3)), 0.3, 0.0))
    with pytest.raises(ValueError, match="^guess must be finite$"):
        continue_branch(QUARTIC_MODEL, 0.1, 0.5, 0.1, [0.7])
