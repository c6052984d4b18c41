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
    c = np.asarray(wave.amplitudes, dtype=complex)
    return _residual_and_jacobian(model, kap, c, _coupling_matrix(model, kap))[0]


def _residual_and_jacobian(model: ModelSpec, kap: float, c: np.ndarray, coupling: np.ndarray):
    """Residual of the amplitude system and its Jacobian in 2N real unknowns.

    Overflow from runaway iterates gives non-finite residuals, which the
    caller detects and reports as NoConvergence; the caller ignores the
    overflow in np.errstate, entered once per solve.
    """
    values = coupling @ c
    # the loop runs on Python floats and lists: numpy's arithmetic, bit for bit, without the
    # cost of numpy scalars and item writes; overflow gives inf silently here too
    rows, values, c = coupling.tolist(), values.tolist(), c.tolist()
    res, jac = [], []
    for j, osc in enumerate(model.oscillators):
        psi = values[j]
        u, v = psi.real, psi.imag
        s = u * u + v * v
        a = force_ratio(osc, s)
        da = -2.0 * _horner(osc._curvature_coefficients, s)  # d alpha / ds = -2 u''(s)
        r = 2.0 * kap * c[j] - a * psi
        res += (r.real, r.imag)
        # dF/d(Re psi, Im psi) for F = alpha(|psi|^2) psi
        fuu = a + 2.0 * u * u * da
        fuv = 2.0 * u * v * da
        fvv = a + 2.0 * v * v * da
        row_u, row_v = [], []  # Jacobian rows 2j and 2j + 1
        for e in rows[j]:
            row_u += (-fuu * e, -fuv * e)
            row_v += (-fuv * e, -fvv * e)
        row_u[2 * j] += 2.0 * kap
        row_v[2 * j + 1] += 2.0 * kap
        jac += (row_u, row_v)
    return np.array(res), np.array(jac)


def _gauge_rotate(amps: np.ndarray) -> np.ndarray:
    """Rotate the common phase so the first nonzero amplitude is real >= 0."""
    for idx, c in enumerate(amps):
        if abs(c) > 0.0:
            rotated = amps * (c.conjugate() / abs(c))
            rotated[idx] = abs(c)
            return rotated
    return amps


def _sup_norm(x: np.ndarray) -> float:
    """max |x_i| as np.max(np.abs(x)) gives it, nan when any entry is nan; a Python loop, for short x."""
    top = 0.0
    for v in x.tolist():
        v = abs(v)
        if not v <= top:  # larger, or nan
            if v != v:
                return v
            top = v
    return top


def _gauged(res: np.ndarray, c: np.ndarray) -> np.ndarray:
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
    NoConvergence after 100 iterations and ConvergedToZero when the iteration
    lands on the zero branch (|C| <= 1e-9), so callers can tell the trivial
    wave from a genuine one.  At omega = +-m only the zero wave decays, and it
    is returned directly.
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
    c = _gauge_rotate(c)
    kap = kappa(model, omega)
    coupling = _coupling_matrix(model, kap)

    res, jac = _residual_and_jacobian(model, kap, c, coupling)
    for _ in range(MAX_ITER):
        if _sup_norm(res) <= RESIDUAL_TOL:
            break
        g = _gauged(res, c)
        jg = jac.copy()
        jg[1, :] = 0.0
        jg[1, 1] = 1.0
        try:
            delta = np.linalg.solve(jg, -g)
        except np.linalg.LinAlgError:
            raise NoConvergence(omega, _sup_norm(res))
        step = delta[0::2] + 1j * delta[1::2]
        norm_old = _sup_norm(g)
        scale = 1.0
        for _ in range(8):
            c_try = c + scale * step
            res_try, jac_try = _residual_and_jacobian(model, kap, c_try, coupling)
            if _sup_norm(_gauged(res_try, c_try)) < norm_old:
                break
            scale *= 0.5
        c, res, jac = c_try, res_try, jac_try
    else:
        raise NoConvergence(omega, _sup_norm(res))

    c = _gauge_rotate(c)
    final = _sup_norm(_residual_and_jacobian(model, kap, c, coupling)[0])
    if final > RESIDUAL_TOL:
        raise NoConvergence(omega, final)
    if np.max(np.abs(c)) <= ZERO_BRANCH_TOL:
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


def continue_branch(model: ModelSpec, omega_start: float, omega_end: float, step: float, guess) -> list[SolitaryWave]:
    """Natural-parameter continuation: march omega, warm-starting each solve.

    Stops at the last good frequency when the branch collapses to zero;
    propagates NoConvergence (with the partial branch attached) when Newton
    fails outright.
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
        try:
            wave = solve_profile(model, w, current)
        except ConvergedToZero:
            break
        except NoConvergence as err:
            raise NoConvergence(w, err.residual, waves) from err
        waves.append(wave)
        current = wave.amplitudes
    return waves
