"""Exact two-frequency solitary waves that defeat single-frequency attraction.

Two constructions on a pair of oscillators at x = 0 and x = L, each mixing a
fundamental tone sin(omega t) with sin(3 omega t):

* wide gap: both oscillators cubic, F(psi) = alpha psi + beta |psi|^2 psi,
  with the interior standing mode sin(k x), k = sqrt(9 omega^2 - m^2) = pi/L,
  so the high harmonic lives between the oscillators.  Requires the gap to
  exceed pi / (2^{3/2} m).
* linear degeneration: oscillator 2 is linear, F_2(psi) = gamma psi, and the
  high harmonic is evanescent (omega < m/3).  Works for every gap width.

Amplitudes come from matching the derivative jump at each oscillator
harmonic by harmonic via sin^3 t = (3 sin t - sin 3t)/4.  The verifier
recomputes the jump residuals from closed-form one-sided derivatives, never
from numerical differentiation, with the forces of ``to_model()``, the model
the simulator steps, so a wrong parameter or oscillator law shows up directly.

Note on the linear-degeneration tail: for x > L the high harmonic is taken
with amplitude C / sinh(kappa3 L), the choice consistent with the four
coefficient equations; its interface value at x = L is read from the
interior branch.  The 3-omega component therefore has a branch mismatch
across x = L, recorded by the verifier as `continuity_gap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, OscillatorSpec, force
from .simulator import FieldState, Grid

__all__ = [
    "WideGapParams",
    "LinearDegParams",
    "VerificationReport",
    "GapTooSmall",
    "NoSolution",
    "Degenerate",
    "wide_gap_construct",
    "wide_gap_eval",
    "linear_deg_construct",
    "linear_deg_eval",
    "verify_exact",
    "init_from",
    "wall_clip",
]


class GapTooSmall(ValueError):
    def __init__(self, L: float, bound: float):
        super().__init__(f"gap {L} must exceed {bound} for the interior mode to exist")
        self.bound = bound


class NoSolution(ValueError):
    pass


class Degenerate(ValueError):
    pass


def _cubic_oscillator(position: float, alpha: float, beta: float) -> OscillatorSpec:
    # F(psi) = (alpha + beta |psi|^2) psi derives from u(s) = -alpha s/2 - beta s^2/4
    return OscillatorSpec(position, (0.0, -alpha / 2.0, -beta / 4.0))


class _TwoFrequencyWave:
    """What both families share: oscillators at 0 and L, fundamental frequency omega."""

    @property
    def positions(self) -> tuple[float, float]:
        return (0.0, self.L)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega


@dataclass(frozen=True)
class WideGapParams(_TwoFrequencyWave):
    m: float
    L: float
    alpha: float
    beta: float
    omega: float
    kappa: float
    k3: float  # interior wavenumber of the 3-omega mode, k3 * L = pi
    A: float
    B: float

    def to_model(self) -> ModelSpec:
        return ModelSpec(self.m, (
            _cubic_oscillator(0.0, self.alpha, self.beta),
            _cubic_oscillator(self.L, self.alpha, self.beta),
        ))

    def eval(self, x, t):
        return wide_gap_eval(self, x, t)

    def one_sided_derivatives(self, j: int, t):
        """(psi'(X_j - 0, t), psi'(X_j + 0, t)) in closed form."""
        t = np.asarray(t, dtype=float)
        E = math.exp(-self.kappa * self.L)
        s1, s3 = np.sin(self.omega * t), np.sin(3.0 * self.omega * t)
        if j == 0:
            left = self.kappa * self.A * (1.0 + E) * s1
            right = self.kappa * self.A * (E - 1.0) * s1 + self.B * self.k3 * s3
        elif j == 1:
            left = self.kappa * self.A * (1.0 - E) * s1 - self.B * self.k3 * s3
            right = -self.kappa * self.A * (1.0 + E) * s1
        else:
            raise IndexError(j)
        return left, right

    def equation_residuals(self) -> dict[str, float]:
        E = math.exp(-self.kappa * self.L)
        cube = self.beta * self.A**3 * (1.0 + E) ** 3
        return {
            "fundamental": 2.0 * self.A * self.kappa - self.alpha * self.A * (1.0 + E) - 0.75 * cube,
            "harmonic": self.B * self.k3 - 0.25 * cube,
        }

    def identity_residuals(self) -> dict[str, float]:
        return {
            "kappa": self.kappa**2 - (self.m**2 - self.omega**2),
            "k3": self.k3**2 - (9.0 * self.omega**2 - self.m**2),
            "k3_L": self.k3 * self.L - math.pi,
        }


def wide_gap_construct(m: float, L: float, alpha: float, beta: float) -> WideGapParams:
    """Two-frequency wave for a wide pair of identical cubic oscillators.

    The interior wavenumber is pinned to k(3 omega) = pi / L so the high
    harmonic vanishes at both oscillators, which forces
    omega = sqrt(pi^2/L^2 + m^2) / 3 and leaves a scalar amplitude problem.
    """
    if m <= 0:
        raise ValueError("mass must be positive")
    bound = math.pi / (2.0**1.5 * m)
    if not L > bound:
        raise GapTooSmall(L, bound)
    omega = math.sqrt((math.pi / L) ** 2 + m**2) / 3.0
    if not (m < 3.0 * omega < 3.0 * m):
        raise GapTooSmall(L, bound)
    kappa = math.sqrt(m**2 - omega**2)
    k3 = math.pi / L
    E = math.exp(-kappa * L)
    if (2.0 * kappa / (1.0 + E) - alpha) * beta <= 0.0:
        raise NoSolution(
            f"sign condition fails: (2 kappa/(1+e^-kL) - alpha) beta = "
            f"{(2.0 * kappa / (1.0 + E) - alpha) * beta:g} must be positive"
        )
    amp_sq = (2.0 * kappa - alpha * (1.0 + E)) / (0.75 * beta * (1.0 + E) ** 3)
    A = math.sqrt(amp_sq)
    B = beta * amp_sq * A * (1.0 + E) ** 3 / (4.0 * k3)
    return WideGapParams(m, L, alpha, beta, omega, kappa, k3, A, B)


def wide_gap_eval(params: WideGapParams, x, t):
    """(psi, psi_t) of the wide-gap wave; real-valued, broadcasts over x and t."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    p = params
    envelope = p.A * (np.exp(-p.kappa * np.abs(x)) + np.exp(-p.kappa * np.abs(x - p.L)))
    interior = np.where((x >= 0.0) & (x <= p.L), p.B * np.sin(p.k3 * x), 0.0)
    psi = envelope * np.sin(p.omega * t) + interior * np.sin(3.0 * p.omega * t)
    psi_t = p.omega * envelope * np.cos(p.omega * t) + 3.0 * p.omega * interior * np.cos(3.0 * p.omega * t)
    return psi, psi_t


@dataclass(frozen=True)
class LinearDegParams(_TwoFrequencyWave):
    m: float
    L: float
    omega: float
    alpha: float
    beta: float
    gamma: float  # linear response of oscillator 2
    kappa: float
    kappa3: float  # evanescent rate of the 3-omega mode
    A: float
    B: float
    C: float

    def to_model(self) -> ModelSpec:
        return ModelSpec(self.m, (
            _cubic_oscillator(0.0, self.alpha, self.beta),
            OscillatorSpec(self.L, (0.0, -self.gamma / 2.0)),
        ))

    def eval(self, x, t):
        return linear_deg_eval(self, x, t)

    def one_sided_derivatives(self, j: int, t):
        t = np.asarray(t, dtype=float)
        p = self
        s1, s3 = np.sin(p.omega * t), np.sin(3.0 * p.omega * t)
        if j == 0:
            left = p.kappa * (p.A + p.B) * s1
            right = p.kappa * (p.B - p.A) * s1 + p.kappa3 * p.C * s3
        elif j == 1:
            eL, emL = math.exp(p.kappa * p.L), math.exp(-p.kappa * p.L)
            left = p.kappa * (-p.A * emL + p.B * eL) * s1 + p.kappa3 * p.C * math.cosh(p.kappa3 * p.L) * s3
            right = p.kappa * (-p.A * emL - p.B * eL) * s1 - p.kappa3 * p.C / math.sinh(p.kappa3 * p.L) * s3
        else:
            raise IndexError(j)
        return left, right

    def equation_residuals(self) -> dict[str, float]:
        p = self
        sh, ch = math.sinh(p.kappa3 * p.L), math.cosh(p.kappa3 * p.L)
        cube = p.beta * (p.A + p.B) ** 3
        return {
            "c01": 2.0 * p.kappa * p.A - p.alpha * (p.A + p.B) - 0.75 * cube,
            "c03": p.kappa3 * p.C - 0.25 * cube,
            "cl1": 2.0 * p.B * p.kappa * math.exp(p.kappa * p.L)
            - p.gamma * (p.A * math.exp(-p.kappa * p.L) + p.B * math.exp(p.kappa * p.L)),
            "cl3": p.kappa3 * p.C / sh + p.kappa3 * p.C * ch - p.gamma * p.C * sh,
        }

    def identity_residuals(self) -> dict[str, float]:
        return {
            "kappa": self.kappa**2 - (self.m**2 - self.omega**2),
            "kappa3": self.kappa3**2 - (self.m**2 - 9.0 * self.omega**2),
        }


def linear_deg_construct(m: float, L: float, omega: float, alpha: float, beta: float) -> LinearDegParams:
    """Two-frequency wave with a linear second oscillator; any gap L > 0 works.

    gamma is forced by the high-harmonic jump at x = L, the amplitude ratio
    B/A by the fundamental jump there, A by the fundamental jump at x = 0,
    and C by the high-harmonic jump at x = 0.
    """
    if m <= 0 or L <= 0:
        raise ValueError("mass and gap must be positive")
    if not 0.0 < omega < m / 3.0:
        raise ValueError(f"omega={omega} must lie in (0, m/3) for an evanescent third harmonic")
    if beta == 0.0:
        raise ValueError("beta must be nonzero")
    kappa = math.sqrt(m**2 - omega**2)
    kappa3 = math.sqrt(m**2 - 9.0 * omega**2)
    sh, ch = math.sinh(kappa3 * L), math.cosh(kappa3 * L)
    gamma = kappa3 * (1.0 / sh + ch) / sh
    if abs(2.0 * kappa - gamma) < 1e-14 * max(1.0, kappa, gamma):
        raise Degenerate("2 kappa equals gamma; the amplitude ratio is undefined")
    r = gamma * math.exp(-2.0 * kappa * L) / (2.0 * kappa - gamma)
    if abs(1.0 + r) < 1e-14:
        raise Degenerate("A + B vanishes; the construction collapses")
    amp_sq = (2.0 * kappa - alpha * (1.0 + r)) / (0.75 * beta * (1.0 + r) ** 3)
    if amp_sq <= 0.0:
        raise NoSolution(f"fundamental amplitude squared is {amp_sq:g}; no real solution")
    A = math.sqrt(amp_sq)
    B = r * A
    C = beta * (A + B) ** 3 / (4.0 * kappa3)
    return LinearDegParams(m, L, omega, alpha, beta, gamma, kappa, kappa3, A, B, C)


def linear_deg_eval(params: LinearDegParams, x, t):
    """(psi, psi_t), real-valued; x = L takes the interior branch."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    p = params
    base_left = (p.A + p.B) * np.exp(p.kappa * x)
    base_mid = p.A * np.exp(-p.kappa * x) + p.B * np.exp(p.kappa * x)
    base_right = p.A * np.exp(-p.kappa * x) + p.B * np.exp(p.kappa * (2.0 * p.L - x))
    high_mid = p.C * np.sinh(p.kappa3 * np.minimum(x, p.L))
    high_right = p.C / math.sinh(p.kappa3 * p.L) * np.exp(-p.kappa3 * (x - p.L))

    base = np.where(x <= 0.0, base_left, np.where(x <= p.L, base_mid, base_right))
    high = np.where(x <= 0.0, 0.0, np.where(x <= p.L, high_mid, high_right))
    psi = base * np.sin(p.omega * t) + high * np.sin(3.0 * p.omega * t)
    psi_t = p.omega * base * np.cos(p.omega * t) + 3.0 * p.omega * high * np.cos(3.0 * p.omega * t)
    return psi, psi_t


@dataclass(frozen=True)
class VerificationReport:
    max_jump_residual: float
    jump_residuals: dict[int, float]
    equation_residuals: dict[str, float]
    identity_residuals: dict[str, float]
    continuity_gap: dict[int, float]

    def to_json_dict(self) -> dict:
        return {
            "max_jump_residual": self.max_jump_residual,
            "jump_residuals": {str(k): v for k, v in self.jump_residuals.items()},
            "equation_residuals": dict(self.equation_residuals),
            "identity_residuals": dict(self.identity_residuals),
            "continuity_gap": {str(k): v for k, v in self.continuity_gap.items()},
        }


def verify_exact(solution, time_samples: int = 50) -> VerificationReport:
    """Check the derivative-jump conditions of an exact two-frequency wave.

    At time_samples times over one period the residual
    -psi'(X_j+0) + psi'(X_j-0) - F_j(psi(X_j)) is evaluated from the
    closed-form one-sided derivatives, psi(X_j) from ``solution.eval`` and F_j
    the force of oscillator j of ``solution.to_model()``.  The report also
    carries the coefficient-equation and parameter-identity residuals and the
    value gap across each oscillator, measured at X_j -+ 1e-7 (a construction
    diagnostic).
    """
    ts = np.linspace(0.0, solution.period, time_samples, endpoint=False)
    jumps: dict[int, float] = {}
    gaps: dict[int, float] = {}
    for j, osc in enumerate(solution.to_model().oscillators):
        pos = osc.position
        left, right = solution.one_sided_derivatives(j, ts)
        value, _ = solution.eval(pos, ts)
        residual = -right + left - force(osc, value)
        jumps[j] = float(np.max(np.abs(residual)))
        below, _ = solution.eval(pos - 1e-7, ts)
        above, _ = solution.eval(pos + 1e-7, ts)
        gaps[j] = float(np.max(np.abs(above - below)))
    return VerificationReport(
        max_jump_residual=max(jumps.values()),
        jump_residuals=jumps,
        equation_residuals={k: float(v) for k, v in solution.equation_residuals().items()},
        identity_residuals={k: float(v) for k, v in solution.identity_residuals().items()},
        continuity_gap=gaps,
    )


def init_from(solution, grid: Grid) -> FieldState:
    """Sample the exact wave at t = 0 as simulator initial data.

    psi(., 0) vanishes (pure sine time factors) and pi(., 0) is the exact
    time derivative.  The oscillators must already sit on grid nodes.
    """
    x = grid.x
    for j, pos in enumerate(solution.positions):
        i = int(round((pos - grid.x_min) / grid.dx))
        if not (0 <= i < grid.count) or abs(x[i] - pos) > 1e-9 * max(1.0, abs(pos)):
            raise ValueError(f"grid misalignment: oscillator {j} at {pos} is not on a node")
    psi, pi = solution.eval(x, 0.0)
    psi = np.asarray(psi, dtype=complex).copy()
    pi = np.asarray(pi, dtype=complex).copy()
    psi[0] = psi[-1] = 0.0
    pi[0] = pi[-1] = 0.0
    return FieldState(psi, pi, 0.0)


def wall_clip(solution, grid: Grid) -> float:
    """What init_from drops, relative to the wave's peak.

    The largest |psi| or |pi| of the wave at t = 0 on the two Dirichlet end
    nodes, over the largest on the grid (0 for a zero wave).
    """
    psi, pi = (np.abs(np.asarray(f)) for f in solution.eval(grid.x, 0.0))
    peak = max(psi.max(), pi.max())
    return float(max(psi[0], psi[-1], pi[0], pi[-1]) / peak) if peak > 0 else 0.0
