"""Solitary-wave profiles pinned at the oscillator positions.

A solitary wave phi(x) e^{-i omega t} with |omega| <= m has the profile

    phi(x) = sum_J C_J exp(-kappa |x - X_J|),     kappa = sqrt(m^2 - omega^2),

and the complex amplitudes C_J solve the derivative-jump system

    2 kappa C_J = F_J( sum_K C_K exp(-kappa |X_J - X_K|) ).

The solver is a damped Newton iteration in the 2N real amplitude components
with the global phase fixed by Im C_1 = 0 (the system is invariant under a
common phase rotation, which would otherwise make the Jacobian singular).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelSpec, _horner, force_ratio

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

RESIDUAL_TOL = 1e-11
ZERO_BRANCH_TOL = 1e-9
MAX_ITER = 100
# Newton starts in the order tried, each the same amplitude at every oscillator: the CLI
# solves from the first; dist_to_manifold falls back on all of them after its warm start
_NEWTON_STARTS = (0.7, 1.0, 0.3)


def _newton_starts(model: ModelSpec) -> list[list[complex]]:
    """The shared Newton starts as guesses for model, in the order tried."""
    return [[s + 0j] * model.count for s in _NEWTON_STARTS]


class NoConvergence(RuntimeError):
    """Newton failed; carries the frequency and any partial branch."""

    def __init__(self, omega: float, residual: float, waves=None):
        super().__init__(f"no convergence at omega={omega} (residual {residual:.3e})")
        self.omega = omega
        self.residual = residual
        self.waves = list(waves) if waves is not None else []


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
    """The rows exp(-kappa |X_J - X_K|), K = 1..N, as lists of floats."""
    pos = model.positions
    return [[math.exp(-kap * abs(xj - xk)) for xk in pos] for xj in pos]


def amplitude_residual(model: ModelSpec, wave: SolitaryWave) -> np.ndarray:
    """Real/imaginary parts of 2 kappa C_J - F_J(phi(X_J)), interleaved per J."""
    kap = kappa(model, wave.omega)
    c = [complex(z) for z in wave.amplitudes]
    return np.array(_residual(model, kap, c, _coupling_matrix(model, kap))[0])


def _residual(model: ModelSpec, kap: float, c: list, coupling: list):
    """Residual of the amplitude system at c, a list of Python complex, and its slopes.

    Returns the 2N residual entries, Re and Im interleaved per J, and per J the
    entries (fuu, fuv, fvv) of dF/d(Re psi, Im psi), which _jacobian assembles.
    The arithmetic is on Python floats, Re and Im apart: psi_J is the sum
    over K of coupling[J][K] C_K, accumulated from 0.0 left to right.
    Overflow from runaway iterates gives inf and nan silently; the solver
    detects the non-finite residual and reports NoConvergence.
    """
    cr = [z.real for z in c]
    ci = [z.imag for z in c]
    k2 = 2.0 * kap
    res, slopes = [], []
    for osc, row, xr, xi in zip(model.oscillators, coupling, cr, ci):
        u = v = 0.0
        for e, zr, zi in zip(row, cr, ci):
            u += e * zr
            v += e * zi
        s = u * u + v * v
        a = force_ratio(osc, s)
        da = -2.0 * _horner(osc._curvature_coefficients, s)  # d alpha / ds = -2 u''(s)
        res += (k2 * xr - a * u, k2 * xi - a * v)
        # dF/d(Re psi, Im psi) for F = alpha(|psi|^2) psi
        slopes.append((a + 2.0 * u * u * da, 2.0 * u * v * da, a + 2.0 * v * v * da))
    return res, slopes


def _jacobian(kap: float, coupling: list, slopes: list) -> list:
    """Jacobian of the residual in the 2N real unknowns, as a list of row lists."""
    jac = []
    for j, (fuu, fuv, fvv) in enumerate(slopes):
        row_u, row_v = [], []  # Jacobian rows 2j and 2j + 1
        for e in coupling[j]:
            row_u += (-fuu * e, -fuv * e)
            row_v += (-fuv * e, -fvv * e)
        row_u[2 * j] += 2.0 * kap
        row_v[2 * j + 1] += 2.0 * kap
        jac += (row_u, row_v)
    return jac


def _solve_linear(a: list, b: list) -> list:
    """x with a x = b, by Gaussian elimination with partial pivoting on Python floats.

    a is a list of row lists; a and b are overwritten.  The pivot is the
    first entry of largest modulus in its column.  An exactly zero pivot,
    where LAPACK's dgesv reports a singular matrix, raises ZeroDivisionError.
    """
    n = len(b)
    for k in range(n):
        p, top = k, abs(a[k][k])
        for i in range(k + 1, n):
            v = abs(a[i][k])
            if v > top:
                p, top = i, v
        if top == 0.0:
            raise ZeroDivisionError("singular matrix")
        a[k], a[p] = a[p], a[k]
        b[k], b[p] = b[p], b[k]
        pivot_row, pivot, bk = a[k], a[k][k], b[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k] / pivot
            for j in range(k + 1, n):
                row[j] -= f * pivot_row[j]
            b[i] -= f * bk
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        row, acc = a[k], b[k]
        for j in range(k + 1, n):
            acc -= row[j] * x[j]
        x[k] = acc / row[k]
    return x


def _modulus(z: complex) -> float:
    """|z| as abs gives it, but inf where the modulus overflows and abs raises OverflowError."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _gauge_rotate(amps: list) -> list:
    """Rotate the common phase so the first nonzero amplitude is real >= 0; a list of Python complex.

    Each amplitude is multiplied, in Python complex arithmetic, by
    conj(c) / |c| of that first amplitude c, which itself becomes |c|.  A
    modulus that overflows is inf: the rotated amplitudes are then not
    finite and the solve fails with NoConvergence.
    """
    for idx, c in enumerate(amps):
        r = _modulus(c)
        if r > 0.0:
            f = complex(c.real / r, -c.imag / r)
            rotated = [z * f for z in amps]
            rotated[idx] = complex(r)
            return rotated
    return list(amps)


def _sup_norm(x) -> float:
    """max |x_i| as np.max(np.abs(x)) gives it, nan when any entry is nan; a Python loop, for short x."""
    top = 0.0
    for v in x:
        v = abs(v)
        if not v <= top:  # larger, or nan
            if v != v:
                return v
            top = v
    return top


def _gauged(res: list, c: list) -> list:
    """The residual with its second entry, Im of equation 1, replaced by the gauge Im C_1."""
    g = res.copy()
    g[1] = c[0].imag
    return g


def _zero_wave(model: ModelSpec, omega: float) -> SolitaryWave:
    # zero amplitudes solve 2 kappa C - alpha(0) C = 0 exactly
    return SolitaryWave(float(omega), kappa(model, omega), (0j,) * model.count, 0.0)


def solve_profile(model: ModelSpec, omega: float, guess) -> SolitaryWave:
    """Newton-solve the amplitude system at fixed frequency.

    The phase gauge Im C_1 = 0 replaces the corresponding residual equation;
    on residual increase the step is halved up to 8 times.  Raises
    NoConvergence after 100 iterations, as soon as an iterate's residual is
    not finite, or when the gauged Jacobian has an exactly zero pivot, and
    ConvergedToZero when the iteration lands on the zero branch
    (|C| <= 1e-9), so callers can tell the trivial wave from a genuine one.
    A guess that is not finite is a ValueError.  At omega = +-m only the
    zero wave decays, and it is returned directly.

    The whole solve runs on Python floats and complex numbers, with no numpy
    call: the coupling from math.exp, the coupling product as a Python sum,
    the gauged linear system by Gaussian elimination with partial pivoting
    (_solve_linear) and the gauge rotation in Python complex arithmetic.
    """
    kap = kappa(model, omega)  # refuses a frequency outside the band first
    if abs(omega) == model.mass:
        return _zero_wave(model, omega)
    n = model.count
    c = [complex(z) for z in guess]
    if len(c) != n:
        raise ValueError(f"guess must have length {n}")
    if not all(map(cmath.isfinite, c)):
        raise ValueError("guess must be finite")
    c = _gauge_rotate(c)
    coupling = _coupling_matrix(model, kap)

    res, slopes = _residual(model, kap, c, coupling)
    for _ in range(MAX_ITER):
        norm = _sup_norm(res)
        if norm <= RESIDUAL_TOL:
            break
        if not math.isfinite(norm):  # an overflowed iterate never recovers
            raise NoConvergence(omega, norm)
        g = _gauged(res, c)
        jac = _jacobian(kap, coupling, slopes)
        jac[1] = [0.0] * (2 * n)  # Im C_1 = 0 in place of Jacobian row 1
        jac[1][1] = 1.0
        try:
            delta = _solve_linear(jac, [-x for x in g])
        except ZeroDivisionError:
            raise NoConvergence(omega, norm)
        step = list(zip(delta[0::2], delta[1::2]))
        norm_old = _sup_norm(g)
        scale = 1.0
        for _ in range(8):
            c_try = [complex(z.real + scale * dr, z.imag + scale * di) for z, (dr, di) in zip(c, step)]
            res_try, slopes_try = _residual(model, kap, c_try, coupling)
            if _sup_norm(_gauged(res_try, c_try)) < norm_old:
                break
            scale *= 0.5
        c, res, slopes = c_try, res_try, slopes_try
    else:
        raise NoConvergence(omega, _sup_norm(res))

    c = _gauge_rotate(c)
    final = _sup_norm(_residual(model, kap, c, coupling)[0])
    if final > RESIDUAL_TOL:
        raise NoConvergence(omega, final)
    if max(map(_modulus, c)) <= ZERO_BRANCH_TOL:
        raise ConvergedToZero(_zero_wave(model, omega))
    return SolitaryWave(float(omega), kap, tuple(c), final)


def profile_eval(model: ModelSpec, wave: SolitaryWave, x):
    """phi(x) = sum_J C_J exp(-kappa |x - X_J|); works on scalars and arrays."""
    xs = np.asarray(x, dtype=float)
    out = np.zeros(xs.shape, dtype=complex)
    for c, pos in zip(wave.amplitudes, model.positions):
        out += c * np.exp(-wave.kappa * np.abs(xs - pos))
    if np.isscalar(x) or xs.ndim == 0:
        return complex(out)
    return out


def _solve_from(model: ModelSpec, omega: float, starts) -> SolitaryWave:
    """solve_profile from the first start that neither fails nor collapses; the last one's failure propagates."""
    for start in starts[:-1]:
        try:
            return solve_profile(model, omega, start)
        except (NoConvergence, ConvergedToZero):
            pass
    return solve_profile(model, omega, starts[-1])


def continue_branch(model: ModelSpec, omega_start: float, omega_end: float, step: float, guess) -> list[SolitaryWave]:
    """Natural-parameter continuation: march omega with a secant predictor and Newton corrector.

    Once two points are solved, each solve starts on the line through the
    last two solved amplitudes, C_k + r (C_k - C_{k-1}) with
    r = (omega - omega_k) / (omega_k - omega_{k-1}); when that start fails or
    collapses it is retried from the last solved amplitudes, so the branch
    ends where a plain warm start ends it.  Stops at the last good frequency
    when the branch collapses to zero; propagates NoConvergence (with the
    partial branch attached) when Newton fails outright.  A step at or below
    4 ulps of the larger endpoint modulus is a ValueError, before any solve.
    """
    m = model.mass
    if not (abs(omega_start) < m and abs(omega_end) < m):
        raise ValueError("both endpoint frequencies must lie strictly inside (-m, m)")
    if not step > 0:  # a nan too
        raise ValueError("step must be positive")
    floor = 4 * math.ulp(max(abs(omega_start), abs(omega_end)))
    if step <= floor:  # above it every formed frequency advances, and the count is finite
        raise ValueError(f"step {step:g} is at or below 4 ulps of the larger endpoint, {floor:g}")
    span = omega_end - omega_start
    direction = 1.0 if span >= 0 else -1.0
    k_max = math.floor(abs(span) / step + 1e-12)
    waves: list[SolitaryWave] = []
    current = list(guess)
    for k in range(k_max + 1):
        w = omega_start + direction * step * k  # formed as reached: a fine range is never held as a list
        starts = [current]
        if len(waves) >= 2:
            prev, last = waves[-2], waves[-1]
            r = (w - last.omega) / (last.omega - prev.omega)
            starts.insert(0, [b + r * (b - a) for a, b in zip(prev.amplitudes, last.amplitudes)])
        try:
            wave = _solve_from(model, w, starts)
        except ConvergedToZero:
            break
        except NoConvergence as err:
            raise NoConvergence(w, err.residual, waves) from err
        waves.append(wave)
        current = wave.amplitudes
    return waves
