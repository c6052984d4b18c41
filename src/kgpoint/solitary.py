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
    return float(np.sqrt(max(m * m - omega * omega, 0.0)))


def _coupling_matrix(model: ModelSpec, kap: float) -> np.ndarray:
    pos = np.asarray(model.positions)
    return np.exp(-kap * np.abs(pos[:, None] - pos[None, :]))


@np.errstate(over="ignore", invalid="ignore")  # huge amplitudes overflow to non-finite entries
def amplitude_residual(model: ModelSpec, wave: SolitaryWave) -> np.ndarray:
    """Real/imaginary parts of 2 kappa C_J - F_J(phi(X_J)), interleaved per J."""
    kap = kappa(model, wave.omega)
    c = [complex(z) for z in wave.amplitudes]
    return np.array(_residual(model, kap, c, _coupling_matrix(model, kap))[0])


def _residual(model: ModelSpec, kap: float, c: list, coupling: np.ndarray):
    """Residual of the amplitude system at c, a list of Python complex, and its slopes.

    Returns the 2N residual entries, Re and Im interleaved per J, and per J the
    entries (fuu, fuv, fvv) of dF/d(Re psi, Im psi), which _jacobian assembles.
    Overflow from runaway iterates gives non-finite residuals, which the
    solver detects and reports as NoConvergence; callers ignore the overflow
    in np.errstate, entered once per solve.
    """
    # the loop runs on Python floats: numpy's arithmetic, bit for bit, without the cost of
    # numpy scalars; overflow gives inf silently here too
    values = (coupling @ c).tolist()
    res, slopes = [], []
    for j, osc in enumerate(model.oscillators):
        psi = values[j]
        u, v = psi.real, psi.imag
        s = u * u + v * v
        a = force_ratio(osc, s)
        da = -2.0 * _horner(osc._curvature_coefficients, s)  # d alpha / ds = -2 u''(s)
        r = 2.0 * kap * c[j] - a * psi
        res += (r.real, r.imag)
        # dF/d(Re psi, Im psi) for F = alpha(|psi|^2) psi
        slopes.append((a + 2.0 * u * u * da, 2.0 * u * v * da, a + 2.0 * v * v * da))
    return res, slopes


def _jacobian(kap: float, rows: list, slopes: list) -> list:
    """Jacobian of the residual in the 2N real unknowns, as lists; rows is coupling.tolist()."""
    jac = []
    for j, (fuu, fuv, fvv) in enumerate(slopes):
        row_u, row_v = [], []  # Jacobian rows 2j and 2j + 1
        for e in rows[j]:
            row_u += (-fuu * e, -fuv * e)
            row_v += (-fuv * e, -fvv * e)
        row_u[2 * j] += 2.0 * kap
        row_v[2 * j + 1] += 2.0 * kap
        jac += (row_u, row_v)
    return jac


def _gauge_rotate(amps) -> list:
    """Rotate the common phase so the first nonzero amplitude is real >= 0; a list of Python complex.

    The rotation stays on numpy: its complex quotient and (fused) product
    are not those of Python's complex arithmetic.
    """
    amps = np.asarray(amps, dtype=complex)
    for idx, c in enumerate(amps):
        if abs(c) > 0.0:
            rotated = amps * (c.conjugate() / abs(c))
            rotated[idx] = abs(c)
            return rotated.tolist()
    return amps.tolist()


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


@np.errstate(over="ignore", invalid="ignore")  # once per solve: runaway iterates overflow, see below
def solve_profile(model: ModelSpec, omega: float, guess) -> SolitaryWave:
    """Newton-solve the amplitude system at fixed frequency.

    The phase gauge Im C_1 = 0 replaces the corresponding residual equation;
    on residual increase the step is halved up to 8 times.  Raises
    NoConvergence after 100 iterations, or as soon as an iterate's residual is
    not finite, and ConvergedToZero when the iteration lands on the zero
    branch (|C| <= 1e-9), so callers can tell the trivial wave from a genuine
    one.  A guess that is not finite is a ValueError.  At omega = +-m only the
    zero wave decays, and it is returned directly.

    The iteration runs on Python floats and complex numbers; numpy does the
    coupling product, the linear solve and the gauge rotation.
    """
    m = model.mass
    if not abs(omega) <= m:  # a nan too
        raise ValueError(f"|omega|={abs(omega)} exceeds the mass {m}")
    if abs(omega) == m:
        return _zero_wave(model, omega)
    n = model.count
    c = np.asarray(list(guess), dtype=complex)
    if c.shape != (n,):
        raise ValueError(f"guess must have length {n}")
    if not np.isfinite(c).all():
        raise ValueError("guess must be finite")
    c = _gauge_rotate(c)
    kap = kappa(model, omega)
    coupling = _coupling_matrix(model, kap)
    rows = coupling.tolist()
    gauge_row = [0.0] * (2 * n)  # Im C_1 = 0 in place of Jacobian row 1
    gauge_row[1] = 1.0

    res, slopes = _residual(model, kap, c, coupling)
    for _ in range(MAX_ITER):
        norm = _sup_norm(res)
        if norm <= RESIDUAL_TOL:
            break
        if not math.isfinite(norm):  # an overflowed iterate never recovers
            raise NoConvergence(omega, norm)
        g = _gauged(res, c)
        jac = _jacobian(kap, rows, slopes)
        jac[1] = gauge_row
        try:
            delta = np.linalg.solve(jac, [-x for x in g]).tolist()
        except np.linalg.LinAlgError:
            raise NoConvergence(omega, norm)
        # delta[0::2] + 1j * delta[1::2] as numpy forms it, signed zeros included
        step = [(dr + 0.0 * di, 0.0 + di) for dr, di in zip(delta[0::2], delta[1::2])]
        norm_old = _sup_norm(g)
        scale = 1.0
        for _ in range(8):
            # c + scale * step, numpy's product with the complex (scale, 0) written out
            c_try = [complex(z.real + (scale * sr - 0.0 * si), z.imag + (scale * si + 0.0 * sr))
                     for z, (sr, si) in zip(c, step)]
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
    if max(map(abs, c)) <= ZERO_BRANCH_TOL:
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
    partial branch attached) when Newton fails outright.
    """
    m = model.mass
    if not (abs(omega_start) < m and abs(omega_end) < m):
        raise ValueError("both endpoint frequencies must lie strictly inside (-m, m)")
    if not step > 0:  # a nan too
        raise ValueError("step must be positive")
    span = omega_end - omega_start
    direction = 1.0 if span >= 0 else -1.0
    k_max = int(np.floor(abs(span) / step + 1e-12))
    omegas = [omega_start + direction * step * k for k in range(k_max + 1)]
    waves: list[SolitaryWave] = []
    current = list(guess)
    for w in omegas:
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
