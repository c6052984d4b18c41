import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpoint.model import (
    ModelSpec,
    OscillatorSpec,
    UnboundedPotentialError,
    check_assumptions,
    derived_bounds,
    force,
    force_ratio,
    lower_bound_constants,
    potential,
)

QUARTIC = OscillatorSpec(0.0, (0.0, -2.0, 1.0))


def test_potential_examples():
    assert potential(QUARTIC, 0.0) == 0.0
    assert potential(QUARTIC, 1.0) == pytest.approx(-1.0, abs=1e-15)
    for theta in np.linspace(0, 2 * np.pi, 7):
        assert potential(QUARTIC, np.exp(1j * theta)) == pytest.approx(-1.0, abs=1e-12)


def test_force_examples():
    assert force(QUARTIC, 0.0) == 0.0
    assert force(QUARTIC, 0.5) == pytest.approx(1.5, abs=1e-15)
    for theta in (0.3, 1.7, 4.0):
        expected = 1.5 * np.exp(1j * theta)
        assert force(QUARTIC, 0.5 * np.exp(1j * theta)) == pytest.approx(expected, abs=1e-14)


def test_degree_validation():
    with pytest.raises(ValueError):
        OscillatorSpec(0.0, (1.0,))
    with pytest.raises(ValueError):
        ModelSpec(1.0, (OscillatorSpec(0.0, (0, 1)), OscillatorSpec(0.0, (0, 1))))
    with pytest.raises(ValueError):
        ModelSpec(-1.0, (QUARTIC,))


def test_gradient_consistency():
    # force must be the negative (Re, Im) gradient of the potential
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(100):
        coeffs = tuple(rng.uniform(-3, 3, size=rng.integers(2, 5)))
        osc = OscillatorSpec(0.0, coeffs)
        psi = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        gx = (potential(osc, psi + h) - potential(osc, psi - h)) / (2 * h)
        gy = (potential(osc, psi + 1j * h) - potential(osc, psi - 1j * h)) / (2 * h)
        f = force(osc, psi)
        grad = complex(gx, gy)
        assert abs(f + grad) <= 1e-6 * max(1.0, abs(f))


@settings(deadline=None)
@given(
    theta=st.floats(-10, 10),
    re=st.floats(-3, 3),
    im=st.floats(-3, 3),
    u1=st.floats(-2, 2),
    u2=st.floats(0.1, 2),
)
def test_force_equivariance(theta, re, im, u1, u2):
    osc = OscillatorSpec(0.0, (0.0, u1, u2))
    psi = complex(re, im)
    rot = np.exp(1j * theta)
    assert force(osc, rot * psi) == pytest.approx(rot * force(osc, psi), abs=1e-12)


def test_force_ratio_real():
    rng = np.random.default_rng(3)
    for _ in range(50):
        osc = OscillatorSpec(0.0, tuple(rng.uniform(-2, 2, size=3)))
        psi = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(psi) < 1e-3:
            continue
        f = force(osc, psi)
        ratio = f / psi
        assert abs(ratio.imag) <= 1e-14 * max(1.0, abs(f))


def _model(m, degrees, positions=None):
    if positions is None:
        positions = [float(j) for j in range(len(degrees))]
    oscs = tuple(
        OscillatorSpec(x, (0.0,) * p + (1.0,)) for x, p in zip(positions, degrees)
    )
    return ModelSpec(m, oscs)


def test_derived_bounds_examples():
    b1 = derived_bounds(_model(1.0, [2]))
    assert b1.mu == (1.0,) and b1.mu_prime == (1.0,) and b1.spread_limit == 3.0

    b2 = derived_bounds(_model(1.0, [2, 2]))
    assert b2.mu == (1.0, 3.0)
    assert b2.mu_prime == (3.0, 1.0)
    assert b2.site_bound == (1.0, 1.0)
    assert b2.spread_limit == 3.0

    b3 = derived_bounds(_model(1.0, [2, 3, 2]))
    assert b3.mu == (1.0, 3.0, 15.0)
    assert b3.mu_prime == (15.0, 3.0, 1.0)
    assert b3.site_bound == (1.0, 3.0, 1.0)
    assert b3.spread_limit == 15.0


@settings(deadline=None)
@given(
    m=st.floats(0.1, 5),
    degrees=st.lists(st.integers(1, 5), min_size=1, max_size=6),
)
def test_derived_bounds_monotonicity(m, degrees):
    b = derived_bounds(_model(m, degrees))
    assert all(x <= y for x, y in zip(b.mu, b.mu[1:]))
    assert all(x >= y for x, y in zip(b.mu_prime, b.mu_prime[1:]))
    assert all(v >= m for v in b.mu + b.mu_prime + b.site_bound)
    assert all(b.spread_limit >= (2 * p - 1) * m for p in degrees)


def test_check_assumptions_close_pair():
    model = ModelSpec(1.0, (QUARTIC, OscillatorSpec(0.2, (0.0, -2.0, 1.0))))
    rep = check_assumptions(model)
    assert rep.a1 and rep.a2 and rep.a3
    gap = rep.details["gaps"][0]
    assert gap["spread_limit"] == 3.0
    assert gap["resonance"] == pytest.approx(np.sqrt(np.pi**2 / 0.04 + 1.0))
    assert gap["resonance"] == pytest.approx(15.74, abs=0.01)


def test_check_assumptions_wide_pair():
    model = ModelSpec(1.0, (QUARTIC, OscillatorSpec(np.pi, (0.0, -2.0, 1.0))))
    rep = check_assumptions(model)
    assert rep.a2 and not rep.a3
    assert rep.details["gaps"][0]["resonance"] == pytest.approx(np.sqrt(2.0))


def test_check_assumptions_single_oscillator_vacuous():
    rep = check_assumptions(ModelSpec(1.0, (QUARTIC,)))
    assert rep.a3 and rep.details["gaps"] == []


def test_check_assumptions_a2_failures():
    linear = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -1.0)),))
    assert not check_assumptions(linear).a2
    bad_top = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, 2.0, -1.0)),))
    assert not check_assumptions(bad_top).a2


def test_lower_bound_constants_examples():
    consts = lower_bound_constants(ModelSpec(1.0, (QUARTIC,)))
    assert consts.A[0] == pytest.approx(-1.0, abs=1e-12)
    assert consts.B == (0.0,)

    consts = lower_bound_constants(ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, 0.0, 1.0)),)))
    assert consts.A[0] == pytest.approx(0.0, abs=1e-12)

    consts = lower_bound_constants(ModelSpec(1.0, (OscillatorSpec(0.0, (5.0, -2.0, 1.0)),)))
    assert consts.A[0] == pytest.approx(4.0, abs=1e-12)


def test_lower_bound_linear_oscillator():
    # U = u1 s with u1 < 0 needs B = -u1; fails once the total reaches m
    mild = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -0.4)),))
    consts = lower_bound_constants(mild)
    assert consts.A == (0.0,) and consts.B == (0.4,)
    steep = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -1.2)),))
    with pytest.raises(UnboundedPotentialError):
        lower_bound_constants(steep)


def test_lower_bound_unbounded_potential():
    with pytest.raises(UnboundedPotentialError):
        lower_bound_constants(ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, 2.0, -1.0)),)))


def test_lower_bound_certificate():
    # U(s) - (A - B s) >= -1e-12 out to beyond the last critical point, and finely on [0, 3],
    # where the two badly scaled quartics have their wells (floors -1.18487 and -57.92)
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(40):
        deg = rng.integers(1, 5)
        coeffs = list(rng.uniform(-3, 3, size=deg + 1))
        coeffs[-1] = abs(coeffs[-1]) + 0.1
        cases.append(coeffs)
    cases += [[0.0, 0.0, -2.0, 1.0, 1e-4], [0.0, 2.0, -400.0, 400.0, 0.002]]
    for coeffs in cases:
        osc = OscillatorSpec(0.0, tuple(coeffs))
        consts = lower_bound_constants(ModelSpec(1.0, (osc,)))
        s_max = 1.0 + max(abs(c / coeffs[-1]) for c in coeffs) * 2.0
        s = np.concatenate([np.linspace(0.0, s_max, 2000), np.linspace(0.0, 3.0, 3001)])
        u = np.zeros_like(s)
        for c in reversed(coeffs):
            u = u * s + c
        assert np.min(u - (consts.A[0] - consts.B[0] * s)) >= -1e-12


@pytest.mark.parametrize("mass, position, coefficients", [
    (1.0, 0.0, (0.0, float("nan"), 1.0)), (1.0, 0.0, (0.0, -2.0, float("inf"))),
    (1.0, float("-inf"), (0.0, -2.0, 1.0)), (float("nan"), 0.0, (0.0, -2.0, 1.0)),
    (float("inf"), 0.0, (0.0, -2.0, 1.0)),
], ids=["nan coefficient", "inf coefficient", "inf position", "nan mass", "inf mass"])
def test_model_data_must_be_finite(mass, position, coefficients):
    with pytest.raises(ValueError, match="finite"):
        ModelSpec(mass, (OscillatorSpec(position, coefficients),))


def test_force_ratio_matches_closed_form():
    # alpha(s) = -2 u'(s); for the quartic: 4 - 4 s
    for s in (0.0, 0.25, 1.0, 3.7):
        assert force_ratio(QUARTIC, s) == pytest.approx(4.0 - 4.0 * s, abs=1e-13)


@pytest.mark.parametrize("coeffs", [(0.0, -2.0, 1.0), (5.0, -2.0, 1.0), (0.1, -2.0, 1.0 / 3.0),
                                    (0.0, 3.0, -7.0, 2.0, 0.25), (1.0, -4.0, 6.0, -4.0, 1.0)])
def test_horner_on_an_array_matches_scalar_calls(coeffs):
    # the potential floor scans its bracket grid in one array evaluation
    from kgpoint.model import _horner

    s = np.linspace(0.0, 9.0, 4097)
    assert np.array_equal(_horner(coeffs, s), [_horner(coeffs, float(v)) for v in s])


def _bits(x):
    return np.array([x]).view(np.int64).tolist()


def test_force_and_potential_give_numpy_bits_on_python_scalars(node_values):
    # Python's abs(complex) and float ** 2 raise OverflowError where numpy returns inf: |psi|^2 overflows above
    # about 1.34e154, and abs itself at both parts 1.5e308; both kinds of scalar must give the same bits.  Over
    # 3000 moduli |psi| * |psi| rounds apart from |psi| ** 2 a few times, which the references would catch.
    from kgpoint.model import _horner

    values = node_values
    oscillators = [QUARTIC, OscillatorSpec(0.0, (0.1, -1.0, 0.0, 0.5)), OscillatorSpec(0.0, (0.3, 1.5))]
    finite = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for osc in oscillators:
            for z in values:
                assert type(z) is np.complex128
                s = abs(z) ** 2  # numpy scalars throughout the references
                expected_force, expected_potential = force_ratio(osc, s) * z, _horner(osc.coefficients, s)
                assert _bits(force(osc, complex(z))) == _bits(force(osc, z)) == _bits(expected_force)
                assert _bits(potential(osc, complex(z))) == _bits(potential(osc, z)) == _bits(expected_potential)
                finite += bool(np.isfinite(expected_force))
    assert 0 < finite < len(oscillators) * len(values)  # the sample straddles the overflow
