"""Physical model: point oscillators on a Klein-Gordon string.

The field equation is

    d2/dt2 psi = psi'' - m^2 psi + sum_J delta(x - X_J) F_J(psi(X_J, t))

where each oscillator force derives from a polynomial potential in
s = |psi|^2,

    U_J(psi) = sum_n u_{J,n} |psi|^{2n},       F_J(psi) = -2 u_J'(|psi|^2) psi.

This module holds the model data, the per-oscillator potential and force,
the recursively defined spectral-spread bounds, and the checks for the three
structural assumptions (polynomial potentials, strict nonlinearity, small
gaps) under which single-frequency attraction is expected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "OscillatorSpec",
    "ModelSpec",
    "DerivedBounds",
    "LowerBoundConstants",
    "AssumptionReport",
    "UnboundedPotentialError",
    "potential",
    "force",
    "force_ratio",
    "derived_bounds",
    "check_assumptions",
    "lower_bound_constants",
]


class UnboundedPotentialError(ValueError):
    """Raised when no bound U(psi) >= A - B|psi|^2 with sum(B) < m exists."""


@dataclass(frozen=True)
class OscillatorSpec:
    """One point oscillator: position and potential coefficients in s = |psi|^2.

    coefficients[n] multiplies |psi|^{2n}; the degree p = len(coefficients) - 1
    must be at least 1.
    """

    position: float
    coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        object.__setattr__(self, "position", float(self.position))
        if len(self.coefficients) < 2:
            raise ValueError("oscillator potential needs degree >= 1 in |psi|^2")
        if not np.isfinite((self.position, *self.coefficients)).all():
            raise ValueError("oscillator position and coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @cached_property
    def slope_coefficients(self) -> tuple[float, ...]:
        """Coefficients n u_n of u'(s), low degree first."""
        return _slope(self.coefficients)

    @cached_property
    def _curvature_coefficients(self) -> tuple[float, ...]:
        """Coefficients n (n - 1) u_n of u''(s), low degree first; empty at degree 1."""
        return tuple(n * (n - 1) * c for n, c in enumerate(self.coefficients) if n > 1)


@dataclass(frozen=True)
class ModelSpec:
    """Field mass and the ordered oscillator list."""

    mass: float
    oscillators: tuple[OscillatorSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "oscillators", tuple(self.oscillators))
        if not 0 < self.mass < np.inf:
            raise ValueError("mass must be positive and finite")
        if not self.oscillators:
            raise ValueError("at least one oscillator required")
        pos = self.positions
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("oscillator positions must be strictly increasing")

    @cached_property
    def positions(self) -> tuple[float, ...]:
        """The oscillator positions, made once: every profile solve reads them for its coupling."""
        return tuple(o.position for o in self.oscillators)

    @property
    def count(self) -> int:
        return len(self.oscillators)


@dataclass(frozen=True)
class DerivedBounds:
    """Spectral-spread bounds built from the oscillator degrees.

    mu grows left-to-right, mu_prime right-to-left; site_bound is their
    pointwise minimum and spread_limit the largest one-step inflation
    (2p - 1) * site_bound over all sites.
    """

    mu: tuple[float, ...]
    mu_prime: tuple[float, ...]
    site_bound: tuple[float, ...]
    spread_limit: float


@dataclass(frozen=True)
class LowerBoundConstants:
    """Per-oscillator constants with U_J(psi) >= A_J - B_J |psi|^2."""

    A: tuple[float, ...]
    B: tuple[float, ...]


@dataclass(frozen=True)
class AssumptionReport:
    a1: bool
    a2: bool
    a3: bool
    details: dict = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return self.a1 and self.a2 and self.a3


def _slope(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(n * c for n, c in enumerate(coeffs) if n)


def _horner(coeffs: tuple[float, ...], s):
    """sum_n coeffs[n] s^n for a float or elementwise over an array s."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _at_node(horner: tuple[float, ...], z, force: bool = False):
    """p(|z|^2) = sum_n c_n |z|^{2n}, the c_n in horner highest degree first; -2 p(|z|^2) z if force.

    With an oscillator's coefficients this is U(z), with its slope
    coefficients F(z): ``potential`` and ``force`` evaluate them here, one
    call per node, and the compiled library transcribes both, the force in
    the stepping loop and U in the observer's sample.  z is a Python or numpy
    scalar or a numpy array.  Where |z|^2 overflows (|z| above about 1.3e154)
    Python floats raise OverflowError and numpy gives inf; s is inf for both,
    so their bits agree, nan included.  The sum is _horner's, written out.
    """
    try:
        s = abs(z) ** 2
    except OverflowError:
        s = math.inf
    p = 0.0
    for c in horner:
        p = p * s + c
    return -2.0 * p * z if force else p


def potential(osc: OscillatorSpec, psi: complex) -> float:
    """U(psi) = sum_n u_n |psi|^{2n}."""
    return _at_node(osc.coefficients[::-1], psi)


def force_ratio(osc: OscillatorSpec, s: float) -> float:
    """alpha(s) with F(psi) = alpha(|psi|^2) psi; alpha = -2 u'(s), real."""
    return -2.0 * _horner(osc.slope_coefficients, s)


def force(osc: OscillatorSpec, psi: complex) -> complex:
    """F(psi) = -2 u'(|psi|^2) psi, the negative gradient of U in (Re, Im)."""
    return _at_node(osc.slope_coefficients[::-1], psi, True)


def derived_bounds(model: ModelSpec) -> DerivedBounds:
    m = model.mass
    degrees = [o.degree for o in model.oscillators]
    n = len(degrees)
    mu = [m] * n
    for j in range(n - 1):
        mu[j + 1] = (2 * degrees[j] - 1) * mu[j]
    mu_prime = [m] * n
    for j in range(n - 2, -1, -1):
        mu_prime[j] = (2 * degrees[j + 1] - 1) * mu_prime[j + 1]
    site = [min(a, b) for a, b in zip(mu, mu_prime)]
    lam = max((2 * p - 1) * s for p, s in zip(degrees, site))
    return DerivedBounds(tuple(mu), tuple(mu_prime), tuple(site), lam)


def gap_resonance(model: ModelSpec, gap: float) -> float:
    """sqrt(pi^2 / gap^2 + m^2), the first standing-mode frequency of a gap."""
    return float(np.sqrt(np.pi**2 / gap**2 + model.mass**2))


def check_assumptions(model: ModelSpec) -> AssumptionReport:
    """Check the three structural conditions for single-frequency attraction.

    a1: potentials polynomial in |psi|^2 (true by construction, reported
        for completeness);
    a2: every top coefficient positive and every degree >= 2;
    a3: spread_limit strictly below the first gap resonance for every gap.
    """
    a1 = True
    a2_per = [(o.coefficients[-1] > 0 and o.degree >= 2) for o in model.oscillators]
    a2 = all(a2_per)
    bounds = derived_bounds(model)
    gaps = [b - a for a, b in zip(model.positions, model.positions[1:])]
    gap_checks = []
    a3 = True
    for g in gaps:
        rhs = gap_resonance(model, g)
        ok = bounds.spread_limit < rhs
        a3 = a3 and ok
        gap_checks.append({"gap": g, "spread_limit": bounds.spread_limit, "resonance": rhs, "holds": ok})
    details = {
        "a2_per_oscillator": a2_per,
        "spread_limit": bounds.spread_limit,
        "gaps": gap_checks,
    }
    return AssumptionReport(a1, a2, a3, details)


def _poly_minimum_on_halfline(coeffs: tuple[float, ...]) -> float:
    """Minimum of sum_n c_n s^n over s >= 0 for a polynomial with c_top > 0.

    The minimum sits at s = 0 or at a positive real root of the derivative.
    Every root is taken at its real part (a real root comes back with at
    most a roundoff imaginary part); any other point of s >= 0 can only
    raise the minimum, so no tolerance is needed.
    """
    roots = np.roots(_slope(coeffs)[::-1]).real
    return float(min(_horner(coeffs, s) for s in (0.0, *roots[roots > 0.0].tolist())))


def _oscillator_lower_bound(osc: OscillatorSpec) -> tuple[float, float]:
    """(A, B) with U(s) >= A - B s on s >= 0, preferring B = 0."""
    coeffs = list(osc.coefficients)
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    if len(coeffs) == 1:
        return coeffs[0], 0.0
    if coeffs[-1] > 0.0:
        return _poly_minimum_on_halfline(tuple(coeffs)), 0.0
    if len(coeffs) == 2:
        # Linear potential u0 + u1 s with u1 < 0: the slope itself is the B.
        return coeffs[0], -coeffs[1]
    raise UnboundedPotentialError(
        f"potential with coefficients {osc.coefficients} is unbounded below"
    )


def lower_bound_constants(model: ModelSpec) -> LowerBoundConstants:
    """Constants for the a priori energy bound; fails if sum(B) >= m."""
    pairs = [_oscillator_lower_bound(o) for o in model.oscillators]
    A = tuple(p[0] for p in pairs)
    B = tuple(p[1] for p in pairs)
    if sum(B) >= model.mass:
        raise UnboundedPotentialError(
            f"sum of quadratic-slack constants {sum(B)} is not below the mass {model.mass}"
        )
    return LowerBoundConstants(A, B)
