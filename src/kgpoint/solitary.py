"""Solitary-wave profiles pinned at the oscillator positions.

A solitary wave phi(x) e^{-i omega t} with |omega| <= m has the profile

    phi(x) = sum_J C_J exp(-kappa |x - X_J|),     kappa = sqrt(m^2 - omega^2),

and the complex amplitudes C_J solve the derivative-jump system

    2 kappa C_J = F_J( sum_K C_K exp(-kappa |X_J - X_K|) ).

The solver is a damped Newton iteration in the 2N real amplitude components
with the global phase fixed by Im C_1 = 0 (the system is invariant under a
common phase rotation, which would otherwise make the Jacobian singular).
It runs in the compiled library (``_passes.c``, which also holds the
stepping loop), whose point solve forms kappa and the coupling and runs
Newton from a list of starts in order until one converges: a single solve
(``kgp_solve``) passes one, and a branch continued in frequency runs there
whole in one call (``kgp_branch``), as does the profile's sampler
(``kgp_profile``).  The Newton limits are constants of that library.  This
module checks the arguments and makes the waves and the exceptions; a
branch's waves are made from its rows as they are read.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .model import ModelSpec

__all__ = [
    "SolitaryWave",
    "NoConvergence",
    "ConvergedToZero",
    "kappa",
    "amplitude_residual",
    "solve_profile",
    "profile_eval",
    "continue_branch",
]

# Newton starts in the order tried, each the same amplitude at every oscillator: the CLI
# solves from the first; dist_to_manifold falls back on all of them after its warm start
_NEWTON_STARTS = (0.7, 1.0, 0.3)


def _newton_starts(model: ModelSpec) -> list[list[complex]]:
    """The shared Newton starts as guesses for model, in the order tried."""
    return [[s + 0j] * model.count for s in _NEWTON_STARTS]


class Branch(Sequence):
    """The solved waves of a branch, in frequency order, each decoded from its row as it is read.

    rows is the read-only float64 array of the waves, one row a wave: omega,
    kappa, Re and Im of each amplitude, and residual_max.  collapsed_at is
    the frequency where the branch collapsed to the zero wave, or None when
    it did not.
    """

    collapsed_at: float | None = None

    def __init__(self, rows):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(_wave, self.rows[index].tolist()))
        return _wave(self.rows[index].tolist())

    def __iter__(self):
        return map(_wave, self.rows.tolist())


class NoConvergence(RuntimeError):
    """Newton failed; carries the frequency and any partial branch."""

    def __init__(self, omega: float, residual: float, waves=None):
        super().__init__(f"no convergence at omega={omega} (residual {residual:.3e})")
        self.omega = omega
        self.residual = residual
        self.waves = waves if isinstance(waves, Branch) else list(waves) if waves is not None else []


class ConvergedToZero(RuntimeError):
    """Newton collapsed onto the zero wave; carries it for callers who want it."""

    def __init__(self, wave: "SolitaryWave"):
        super().__init__(f"converged to the zero wave at omega={wave.omega}")
        self.wave = wave


@dataclass(frozen=True)
class SolitaryWave:
    """Frequency, decay rate and pinned amplitudes of one profile.

    residual_max is max |amplitude_residual| at these amplitudes, as the
    solve that returned the wave evaluated it; None for a wave made otherwise.
    """

    omega: float
    kappa: float
    amplitudes: tuple[complex, ...]
    residual_max: float | None = field(default=None, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "omega": self.omega,
            "kappa": self.kappa,
            "amplitudes": [[c.real, c.imag] for c in self.amplitudes],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SolitaryWave":
        amps = tuple(complex(re, im) for re, im in d["amplitudes"])
        return cls(float(d["omega"]), float(d["kappa"]), amps)


def kappa(model: ModelSpec, omega: float) -> float:
    """Decay rate sqrt(m^2 - omega^2); only defined inside the band |omega| <= m."""
    m = model.mass
    if not abs(omega) <= m:  # a nan too
        raise ValueError(f"|omega|={abs(omega)} exceeds the mass {m}")
    return math.sqrt(max(m * m - omega * omega, 0.0))


def _coupling_matrix(model: ModelSpec, kap: float) -> list[list[float]]:
    """The rows exp(-kappa |X_J - X_K|), K = 1..N, as lists of floats, for amplitude_residual."""
    pos = model.positions
    return [[math.exp(-kap * abs(xj - xk)) for xk in pos] for xj in pos]


@cache
def _compiled():
    """The compiled passes, imported on first use: not with the package, nor by a relative import per call."""
    from . import _passes

    return _passes


def amplitude_residual(model: ModelSpec, wave: SolitaryWave) -> np.ndarray:
    """Real/imaginary parts of 2 kappa C_J - F_J(phi(X_J)), interleaved per J: the solve's own residual."""
    kap = kappa(model, wave.omega)
    c = [complex(z) for z in wave.amplitudes]
    return np.array(_compiled().residual(model, _coupling_matrix(model, kap), 2.0 * kap, c))


def _zero_wave(model: ModelSpec, omega: float) -> SolitaryWave:
    # zero amplitudes solve 2 kappa C - alpha(0) C = 0 exactly
    return SolitaryWave(float(omega), kappa(model, omega), (0j,) * model.count, 0.0)


def _start(model: ModelSpec, guess) -> list[complex]:
    """guess as a Newton start: its amplitudes as complex; ValueError unless one an oscillator, each finite."""
    c = [complex(z) for z in guess]
    if len(c) != model.count:
        raise ValueError(f"guess must have length {model.count}")
    if not all(map(cmath.isfinite, c)):
        raise ValueError("guess must be finite")
    return c


def solve_profile(model: ModelSpec, omega: float, guess) -> SolitaryWave:
    """Newton-solve the amplitude system at fixed frequency.

    The phase gauge Im C_1 = 0 replaces the corresponding residual equation;
    on residual increase the step is halved up to 8 times, and the solve
    stops once the residual's sup-norm is at most RESIDUAL_TOL.  Raises
    NoConvergence after MAX_ITER iterations, as soon as an iterate's residual
    is not finite, or when the gauged Jacobian has an exactly zero pivot, and
    ConvergedToZero when the iteration lands on the zero branch (every
    |C| <= ZERO_TOL), so callers can tell the trivial wave from a genuine
    one; the three limits are constants of _passes.c.
    A guess that is not finite is a ValueError.  At omega = +-m only the
    zero wave decays, and it is returned directly.

    The solve runs in the compiled library (kgp_solve in _passes.c), with no
    numpy call: kappa, the coupling with libm's exp (the function math.exp
    calls), the Newton loop, the gauged linear system by Gaussian elimination
    with partial pivoting and the gauge rotations run there, operation for
    operation those of the Python-float loop they replaced, bit for bit.
    """
    kappa(model, omega)  # refuses a frequency outside the band first
    if abs(omega) == model.mass:
        return _zero_wave(model, omega)
    compiled = _compiled()
    status, row = compiled.solve(model, float(omega), _start(model, guess))
    wave = _wave(row)
    if status == compiled.FAILED:
        raise NoConvergence(omega, wave.residual_max)
    if status == compiled.ZERO:
        raise ConvergedToZero(_zero_wave(model, omega))
    return wave


def profile_eval(model: ModelSpec, wave: SolitaryWave, x):
    """phi(x) = sum_J C_J exp(-kappa |x - X_J|); works on scalars and arrays.

    The sum runs in the compiled library (kgp_profile in _passes.c): each term
    numpy's complex product of C_J by the float exp, added from 0.0 one
    oscillator after another, as the numpy loop it replaced, but with libm's
    exp, so the bits do not depend on numpy's SIMD dispatch.
    """
    xs = np.asarray(x, dtype=float)
    out = _compiled().profile(xs, model.positions, wave.kappa, wave.amplitudes)
    if np.isscalar(x) or xs.ndim == 0:
        return complex(out)
    return out


def _wave(row: list[float]) -> SolitaryWave:
    """The wave of one compiled solve's row: omega, kappa, Re and Im of each amplitude, residual_max."""
    parts = iter(row[2:-1])  # Re and Im of each amplitude, taken in pairs
    return SolitaryWave(row[0], row[1], tuple(map(complex, parts, parts)), row[-1])


def continue_branch(model: ModelSpec, omega_start: float, omega_end: float, step: float, guess) -> Branch:
    """Natural-parameter continuation: march omega with a secant predictor and Newton corrector.

    Frequency k is omega_start + step k toward omega_end, formed as it is
    reached, and the first solve starts at guess.  Once two points are
    solved, each solve starts on the line through the last two solved
    amplitudes, C_k + r (C_k - C_{k-1}) with
    r = (omega - omega_k) / (omega_k - omega_{k-1}); when that start fails or
    collapses it is retried from the last solved amplitudes, so the branch
    ends where a plain warm start ends it.  Stops at the last good frequency
    when the branch collapses to zero, and names the frequency that collapsed
    in the returned Branch's collapsed_at; raises NoConvergence (with the
    partial branch attached) when Newton fails outright.  A step that is not
    positive, not finite, or at or below 4 ulps of the larger endpoint
    modulus is a ValueError, before any solve.

    The loop runs in the compiled library in one call (kgp_branch in
    _passes.c), which forms each frequency as it reaches it and grows its
    rows as it solves, so that its memory grows with the points solved and
    not with the range; each point is solved as solve_profile solves it, and
    the waves are bit for bit those of the loop of solve_profile calls it
    replaced.  The Branch holds their rows and makes a wave of a row only
    when it is read.
    """
    m = model.mass
    if not (abs(omega_start) < m and abs(omega_end) < m):
        raise ValueError("both endpoint frequencies must lie strictly inside (-m, m)")
    if not step > 0:  # a nan too
        raise ValueError("step must be positive")
    if step == math.inf:  # the first frequency would be omega_start + 0 inf, a nan
        raise ValueError(f"step {step} is not finite")
    floor = 4 * math.ulp(max(abs(omega_start), abs(omega_end)))
    if step <= floor:  # above it every formed frequency advances, and the count is finite
        raise ValueError(f"step {step:g} is at or below 4 ulps of the larger endpoint, {floor:g}")
    span = omega_end - omega_start
    direction = 1.0 if span >= 0 else -1.0
    k_max = math.floor(abs(span) / step + 1e-12)
    compiled = _compiled()
    status, rows, omega, residual = compiled.branch(model, omega_start, direction * step, k_max + 1,
                                                    _start(model, guess))
    waves = Branch(rows)
    if status == compiled.ZERO:
        waves.collapsed_at = omega
    if status == compiled.FAILED:
        raise NoConvergence(omega, residual, waves)
    if status == compiled.OUT_OF_BAND:
        kappa(model, omega)  # raises the ValueError that names omega
    if status == compiled.NOT_FINITE:
        raise ValueError("guess must be finite")
    return waves
