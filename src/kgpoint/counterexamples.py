"""Exact two-frequency solitary waves that defeat single-frequency attraction.

Two constructions on a pair of oscillators at x = 0 and x = L, each mixing a
fundamental tone sin(omega t) with sin(3 omega t):

* wide gap: both oscillators cubic, F(psi) = alpha psi + beta |psi|^2 psi,
  with the interior standing mode sin(k x), k = sqrt(9 omega^2 - m^2) = pi/L,
  so the high harmonic lives between the oscillators.  Requires the gap to
  exceed pi / (2^{3/2} m).
* linear degeneration: oscillator 2 is linear, F_2(psi) = gamma psi, and the
  high harmonic is evanescent (omega < m/3).  Works for every gap width.

Each harmonic h omega of a wave is written in the solitary wave's pinned form,
sum_J D_J g(|x - X_J|) with g(r) = exp(-lambda r), or sin(lambda r) for the
wide gap's standing mode, and sampled by the solitary profile's sampler
(kgp_profile) with libm's exp and sin; its time factors are libm's too.  So a
wave is continuous, and only its J = j terms kink at X_j: harmonic h jumps
there by 2 D_j g'(0) sin(h omega t).  Amplitudes come from matching that jump
at each oscillator harmonic by harmonic via sin^3 t = (3 sin t - sin 3t)/4.
The verifier recomputes the jump residuals with the forces of ``to_model()``,
the model the simulator steps, so a wrong parameter or oscillator law shows up
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ModelSpec, OscillatorSpec, force
from .simulator import FieldState, Grid
from .solitary import _compiled

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
    "initial_state",
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


def _libm(f, values: np.ndarray) -> np.ndarray:
    """The math function f at each of the float values, an array of their shape."""
    return np.fromiter(map(f, values.ravel().tolist()), float, values.size).reshape(values.shape)


class _TwoFrequencyWave:
    """What both families share: oscillators at 0 and L, fundamental frequency omega, and harmonics in pinned form.

    Each of harmonics is (h, sine, rate, D): the harmonic h omega has the
    profile sum_J D_J g(|x - X_J|), g(r) = sin(rate r) if sine, else
    exp(-rate r).
    """

    @property
    def positions(self) -> tuple[float, float]:
        return (0.0, self.L)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    def to_model(self) -> ModelSpec:
        """The model the wave solves, built once: the same object on every call, so its packed block is kept."""
        return self._model

    def eval(self, x, t):
        """(psi, psi_t), real-valued, at the points x and times t, which broadcast."""
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        model, psi, psi_t = self.to_model(), 0.0, 0.0
        for h, sine, rate, amplitudes in self.harmonics:
            shape = _compiled().profile(model, x, rate, amplitudes, sine).real
            w = h * self.omega
            psi = psi + shape * _libm(math.sin, w * t)
            psi_t = psi_t + w * shape * _libm(math.cos, w * t)
        return psi, psi_t


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

    @cached_property
    def _model(self) -> ModelSpec:
        return ModelSpec(self.m, (
            _cubic_oscillator(0.0, self.alpha, self.beta),
            _cubic_oscillator(self.L, self.alpha, self.beta),
        ))

    @property
    def harmonics(self):
        # k3 L = pi, so (B/2)(sin k3|x| + sin k3|x - L|) is B sin(k3 x) between the oscillators and 0 outside
        return ((1, False, self.kappa, (self.A, self.A)), (3, True, self.k3, (self.B / 2.0, self.B / 2.0)))

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
    return params.eval(x, t)


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

    @cached_property
    def _model(self) -> ModelSpec:
        return ModelSpec(self.m, (
            _cubic_oscillator(0.0, self.alpha, self.beta),
            OscillatorSpec(self.L, (0.0, -self.gamma / 2.0)),
        ))

    @property
    def harmonics(self):
        # A e^{-kappa x} + B e^{kappa x} and C sinh(kappa3 x) between the oscillators, and 0 for x < 0 at 3 omega
        return ((1, False, self.kappa, (self.A, self.B * math.exp(self.kappa * self.L))),
                (3, False, self.kappa3, (-self.C / 2.0, self.C * math.exp(self.kappa3 * self.L) / 2.0)))

    def equation_residuals(self) -> dict[str, float]:
        p = self
        cube = p.beta * (p.A + p.B) ** 3
        return {
            "c01": 2.0 * p.kappa * p.A - p.alpha * (p.A + p.B) - 0.75 * cube,
            "c03": p.kappa3 * p.C - 0.25 * cube,
            "cl1": 2.0 * p.B * p.kappa * math.exp(p.kappa * p.L)
            - p.gamma * (p.A * math.exp(-p.kappa * p.L) + p.B * math.exp(p.kappa * p.L)),
            "cl3": p.kappa3 * p.C * math.exp(p.kappa3 * p.L) - p.gamma * p.C * math.sinh(p.kappa3 * p.L),
        }

    def identity_residuals(self) -> dict[str, float]:
        return {
            "kappa": self.kappa**2 - (self.m**2 - self.omega**2),
            "kappa3": self.kappa3**2 - (self.m**2 - 9.0 * self.omega**2),
        }


def linear_deg_construct(m: float, L: float, omega: float, alpha: float, beta: float) -> LinearDegParams:
    """Two-frequency wave with a linear second oscillator; any gap L > 0 works.

    gamma = kappa3 (1 + coth kappa3 L) is forced by the high-harmonic jump at
    x = L, the amplitude ratio B/A by the fundamental jump there, A by the
    fundamental jump at x = 0, and C by the high-harmonic jump at x = 0.
    """
    if m <= 0 or L <= 0:
        raise ValueError("mass and gap must be positive")
    if not 0.0 < omega < m / 3.0:
        raise ValueError(f"omega={omega} must lie in (0, m/3) for an evanescent third harmonic")
    if beta == 0.0:
        raise ValueError("beta must be nonzero")
    kappa = math.sqrt(m**2 - omega**2)
    kappa3 = math.sqrt(m**2 - 9.0 * omega**2)
    gamma = kappa3 * (1.0 + 1.0 / math.tanh(kappa3 * L))
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
    """(psi, psi_t) of the linear-degeneration wave; real-valued, broadcasts over x and t."""
    return params.eval(x, t)


@dataclass(frozen=True)
class VerificationReport:
    max_jump_residual: float
    jump_residuals: dict[int, float]
    equation_residuals: dict[str, float]
    identity_residuals: dict[str, float]
    continuity_gap: dict[int, float]


def verify_exact(solution) -> VerificationReport:
    """Check the derivative-jump conditions of an exact two-frequency wave.

    At 50 times over one period the residual
    -psi'(X_j+0) + psi'(X_j-0) - F_j(psi(X_j)) is evaluated: the derivatives
    in closed form, harmonic by harmonic -2 D_j g'(0) sin(h omega t), psi(X_j)
    from ``solution.eval`` and F_j the force of oscillator j of
    ``solution.to_model()``.  The report also carries the coefficient-equation
    and parameter-identity residuals and the value gap across each
    oscillator, measured at X_j -+ 1e-7 (a construction diagnostic).
    """
    ts = np.linspace(0.0, solution.period, 50, endpoint=False)
    jumps: dict[int, float] = {}
    gaps: dict[int, float] = {}
    model = solution.to_model()
    psi, _ = solution.eval(np.add.outer(model.positions, [-1e-7, 0.0, 1e-7])[..., None], ts)
    for j, osc in enumerate(model.oscillators):
        below, value, above = psi[j]
        residual = -force(osc, value)
        for h, sine, rate, amplitudes in solution.harmonics:
            slope = rate if sine else -rate  # g'(0)
            residual = residual - 2.0 * amplitudes[j] * slope * _libm(math.sin, h * solution.omega * ts)
        jumps[j] = float(np.max(np.abs(residual)))
        gaps[j] = float(np.max(np.abs(above - below)))
    return VerificationReport(
        max_jump_residual=max(jumps.values()),
        jump_residuals=jumps,
        equation_residuals={k: float(v) for k, v in solution.equation_residuals().items()},
        identity_residuals={k: float(v) for k, v in solution.identity_residuals().items()},
        continuity_gap=gaps,
    )


def init_from(solution, grid: Grid) -> FieldState:
    """Sample the exact wave at t = 0 as simulator initial data (initial_state's state)."""
    return initial_state(solution, grid)[0]


def initial_state(solution, grid: Grid) -> tuple[FieldState, float]:
    """The exact wave sampled once at t = 0 as simulator initial data, and what the walls cut from it (wall_clip).

    psi(., 0) vanishes (pure sine time factors) and pi(., 0) is the exact
    time derivative, both 0 at the two end nodes.  The oscillators must
    already sit on grid nodes.
    """
    x = grid.x
    for j, pos in enumerate(solution.positions):
        i = int(round((pos - grid.x_min) / grid.dx))
        if not (0 <= i < grid.count) or abs(x[i] - pos) > 1e-9 * max(1.0, abs(pos)):
            raise ValueError(f"grid misalignment: oscillator {j} at {pos} is not on a node")
    psi, pi = (np.asarray(f, dtype=complex) for f in solution.eval(x, 0.0))
    clip = wall_clip(psi, pi)
    psi[0] = psi[-1] = 0.0
    pi[0] = pi[-1] = 0.0
    return FieldState(psi, pi, 0.0), clip


def wall_clip(psi, pi) -> float:
    """What zeroing the two Dirichlet end nodes drops from a wave, relative to its peak.

    psi and pi sample the wave on the whole grid; the result is the largest
    |psi| or |pi| on the two end nodes, over the largest on the grid (0 for
    a zero wave).  initial_state takes this from a counterexample's exact wave.
    """
    psi, pi = (np.abs(np.asarray(f)) for f in (psi, pi))
    peak = max(psi.max(), pi.max())
    return float(max(psi[0], psi[-1], pi[0], pi[-1]) / peak) if peak > 0 else 0.0
