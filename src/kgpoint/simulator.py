"""Semidiscrete grid, symplectic time stepping, and energy observers.

Space is a uniform grid with every oscillator sitting exactly on a node; the
point force enters the node acceleration divided by dx (a discrete delta),
which reproduces the derivative-jump condition as dx -> 0.  Time stepping is
explicit Stormer-Verlet (kick-drift-kick), so the flow is symplectic and
reversible and conserves a shadow of the discrete energy

    H = 1/2 sum dx (|pi|^2 + m^2 |psi|^2) + 1/2 sum_cells |dpsi|^2 / dx
        + sum_J U_J(psi(X_J)),

whose gradient is exactly the semidiscrete right-hand side.  Boundaries are
homogeneous Dirichlet on a domain sized so that radiation cannot return
during an experiment.

One loop, ``_kdk``, steps in place on four buffers cut from one block at fixed
offsets; its observer sees the live buffers and must copy what it keeps.  With
the mass term in the stencil diagonal and the half kick dt/2 acc one pre-scaled
stencil on float64 views of the complex buffers, a step is 8 array passes.
H, the energy norm, the local seminorms, the metric and the phase fit all
evaluate one form, ``_energy_form``; the observer of ``evolve`` takes the cell
differences once per sample, and the whole grid and every seminorm window
read their cell terms from that one buffer.  The metric reads only the nodes
with |x| <= r_max, so it, the phase fit and the manifold distance's candidate
waves are evaluated there alone, its radii sharing one such buffer.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .model import ModelSpec, force, lower_bound_constants, potential
from .solitary import _NEWTON_STARTS, ConvergedToZero, NoConvergence, SolitaryWave, profile_eval, solve_profile

__all__ = [
    "Grid",
    "FieldState",
    "ObserverSeries",
    "ManifoldDistance",
    "NoCommensurateGrid",
    "build_grid",
    "step",
    "evolve",
    "hamiltonian",
    "charge",
    "energy_norm",
    "apriori_bound",
    "local_seminorm",
    "metric_dist",
    "solitary_state",
    "perturbed_solitary_state",
    "dist_to_manifold",
]

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep
_NOISE_WIDTH_UNIT = 0.02  # perturbed_solitary_state's noise widths are 10 to 25 of it, whatever the dx


class NoCommensurateGrid(ValueError):
    """Oscillator gaps admit no common grid spacing at the requested resolution."""


@dataclass(frozen=True)
class Grid:
    x_min: float
    dx: float
    count: int
    oscillator_nodes: tuple[int, ...]

    @cached_property
    def x(self) -> np.ndarray:
        """Node coordinates, computed once per grid and read-only."""
        x = self.x_min + self.dx * np.arange(self.count)
        x.setflags(write=False)
        return x

    @property
    def x_max(self) -> float:
        return self.x_min + self.dx * (self.count - 1)

    def window(self, R: float) -> slice:
        """The nodes with |x| <= R, a contiguous run of the sorted x, as a slice; R must be positive."""
        if not R > 0:  # a nan radius too
            raise ValueError("R must be positive")
        if -R < self.x_min or R > self.x_max:
            # the warning names the first caller outside this package, however deep the call
            frame, level = sys._getframe(1), 2
            while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
                frame, level = frame.f_back, level + 1
            warnings.warn(f"seminorm window [-{R}, {R}] exceeds the grid; clipping", stacklevel=level)
        return slice(int(np.searchsorted(self.x, -R, "left")), int(np.searchsorted(self.x, R, "right")))


@dataclass(frozen=True)
class FieldState:
    """Complex field and momentum samples at one time; treated as immutable."""

    psi: np.ndarray
    pi: np.ndarray
    t: float

    def __post_init__(self):
        psi = np.array(self.psi, dtype=complex)
        pi = np.array(self.pi, dtype=complex)
        if psi.shape != pi.shape or psi.ndim != 1:
            raise ValueError("psi and pi must be 1-d arrays of equal length")
        psi.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "pi", pi)


@dataclass
class ObserverSeries:
    """Uniformly sampled observables along one evolution."""

    times: np.ndarray
    energy: np.ndarray
    charge: np.ndarray
    energy_norm: np.ndarray
    seminorms: dict[float, np.ndarray]
    traces_psi: np.ndarray  # (samples, N)
    traces_pi: np.ndarray
    sample_dt: float = field(default=0.0)


def build_grid(model: ModelSpec, x_min: float, x_max: float, dx_target: float) -> Grid:
    """Choose dx <= dx_target dividing all oscillator gaps, anchored at X_1.

    The spacing is the largest integer fraction of the rational gcd of the
    gaps that fits under dx_target; the grid then extends left and right by
    whole steps until it covers [x_min, x_max].  Raises NoCommensurateGrid
    when the gaps have no common divisor within a factor 10^6 of the target
    (irrational gap ratios at this resolution).
    """
    pos = model.positions
    if not (x_min < pos[0] and x_max > pos[-1]):
        raise ValueError("domain must strictly contain all oscillator positions")
    if dx_target <= 0:
        raise ValueError("dx_target must be positive")
    gaps = [b - a for a, b in zip(pos, pos[1:])]
    if gaps:
        fracs = []
        for g in gaps:
            f = Fraction(g).limit_denominator(10**12)
            if abs(float(f) - g) > 1e-12 * max(1.0, abs(g)):
                raise NoCommensurateGrid(f"gap {g} has no rational reconstruction at 1e-12")
            fracs.append(f)
        den = math.lcm(*(f.denominator for f in fracs))
        g_all = Fraction(math.gcd(*(f.numerator * (den // f.denominator) for f in fracs)), den)
        if g_all < Fraction(dx_target).limit_denominator(10**12) / 10**6:
            raise NoCommensurateGrid(
                f"gap gcd {float(g_all):g} is more than 1e6 times finer than dx_target {dx_target:g}"
            )
        k = math.ceil(g_all / Fraction(dx_target))
        dx_frac = g_all / k
        dx = float(dx_frac)
        gap_steps = [int(f / dx_frac) for f in fracs]
    else:
        dx = float(dx_target)
        gap_steps = []

    n_left = math.ceil((pos[0] - x_min) / dx)
    n_right = math.ceil((x_max - pos[-1]) / dx)
    nodes = [n_left]
    for s in gap_steps:
        nodes.append(nodes[-1] + s)
    count = nodes[-1] + n_right + 1
    grid_x_min = pos[0] - n_left * dx
    grid = Grid(grid_x_min, dx, count, tuple(nodes))
    # Node-placement guard: spec tolerance plus a floor for accumulated fp error.
    x = grid.x
    tol = max(1e-12 * dx, 64 * np.finfo(float).eps * max(1.0, abs(grid_x_min), abs(grid.x_max)))
    for p, i in zip(pos, nodes):
        if abs(x[i] - p) > tol:
            raise NoCommensurateGrid(f"oscillator at {p} missed its node by {abs(x[i]-p):.3e}")
    return grid


def _check_step(grid: Grid, state: FieldState, dt: float):
    if abs(dt) >= grid.dx:
        raise ValueError(f"CFL violated: |dt|={abs(dt)} must be below dx={grid.dx}")
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    _check_state(grid, state)


def _check_state(grid: Grid, state: FieldState):
    """A state on grid is 0 at both Dirichlet end nodes, where plain node sums are the trapezoid rule."""
    if len(state.psi) != grid.count:
        raise ValueError(f"state has {len(state.psi)} nodes, grid has {grid.count}")
    for i in (0, grid.count - 1):
        if state.psi[i] != 0 or state.pi[i] != 0:
            raise ValueError(f"Dirichlet end node {i} must be 0, has psi={state.psi[i]:g}, pi={state.pi[i]:g}")


def _require_finite(t: float, *fields: np.ndarray):
    if not all(np.all(np.isfinite(f.view(float))) for f in fields):
        raise FloatingPointError(f"non-finite field detected at t={t}")


def _kdk(model: ModelSpec, grid: Grid, state: FieldState, dt: float, n_steps: int,
         observe_every: int, observe) -> FieldState:
    """n_steps kick-drift-kick steps of size dt from state, in place on private buffers.

    observe(k, psi, pi, scratch) reads the live buffers at step 0 and every
    observe_every steps and may overwrite scratch, a free buffer like psi.  A
    non-finite psi there, or psi or pi at the end, raises FloatingPointError.

    A step is 8 passes over float64 views of the complex buffers (stencil
    neighbours sit 2 floats apart): pi += kick; drift = dt pi; psi += drift;
    kick = ((psi[+1] - c psi) + psi[-1]) dt/(2 dx^2), c = 2 + m^2 dx^2, in 4,
    plus F_J dt/(2 dx) at the oscillator nodes; pi += kick.  It reads (psi, pi)
    alone, so a restart continues bit for bit.  A real multiply per float is
    numpy's complex-by-real product up to the sign of an exact zero.  The four
    buffers are slices of one page-aligned block, 1 KB apart modulo 4 KB
    whatever the heap held before, so their streams alias in the cache alike.
    """
    stride = -(-16 * grid.count // 4096) * 4096 + 1024  # bytes from one buffer to the next
    raw = np.empty(4 * stride + 4096, dtype=np.uint8)
    start = -raw.ctypes.data % 4096
    psi, pi, kick, drift = (raw[start + j * stride:][:16 * grid.count].view(complex) for j in range(4))
    psi[:], pi[:], kick[0], kick[-1] = state.psi, state.pi, 0.0, 0.0  # kick's end nodes stay 0
    p, q, kr, dr = psi.view(float), pi.view(float), kick.view(float), drift.view(float)
    mid, lap = p[2:-2], kr[2:-2]
    c, scale, force_scale = 2.0 + model.mass**2 * grid.dx**2, 0.5 * dt / grid.dx**2, 0.5 * dt / grid.dx
    sites = list(zip(model.oscillators, grid.oscillator_nodes))

    def half_kick():
        np.multiply(mid, c, out=lap)
        np.subtract(p[4:], lap, out=lap)
        np.add(lap, p[:-4], out=lap)
        np.multiply(lap, scale, out=lap)
        for osc, i in sites:
            kick[i] += force(osc, psi[i]) * force_scale

    with np.errstate(over="ignore", invalid="ignore"):
        observe(0, psi, pi, drift)
        half_kick()
        for k in range(1, n_steps + 1):
            np.add(q, kr, out=q)
            np.multiply(q, dt, out=dr)
            np.add(p, dr, out=p)
            half_kick()
            np.add(q, kr, out=q)
            if k % observe_every == 0:
                _require_finite(state.t + k * dt, psi)
                observe(k, psi, pi, drift)
    t = state.t + n_steps * dt
    _require_finite(t, psi, pi)
    return FieldState(psi, pi, t)


def step(model: ModelSpec, grid: Grid, state: FieldState, dt: float) -> FieldState:
    """One kick-drift-kick step; dt < 0 steps backwards (the flow is reversible)."""
    _check_step(grid, state, dt)
    return _kdk(model, grid, state, dt, 1, 1, lambda k, psi, pi, scratch: None)


def _energy_form(model: ModelSpec, grid: Grid, a, b, window=slice(None), d_a=None) -> complex:
    """sum_nodes dx (conj(pi_a) pi_b + m^2 conj(psi_a) psi_b) + sum_cells conj(dpsi_a) dpsi_b / dx.

    a and b are (psi, pi) pairs on the whole grid, 0 at its Dirichlet end
    nodes (where plain sums are the trapezoid rule), or on one window's nodes.
    The sums run over the nodes of ``window``, a slice of those arrays, by
    default all of them, and the cells between them.  d_a, when given, holds
    psi_a[j + 1] - psi_a[j] at every node j but the last, whose entry is never
    read; the cells of a window are then the entries at its nodes but the last.
    """
    (a_psi, a_pi), (b_psi, b_pi) = a, b
    d_a = np.diff(a_psi[window]) if d_a is None else d_a[window][:-1]
    cells = np.vdot(d_a, d_a if b_psi is a_psi else np.diff(b_psi[window]))
    nodes = np.vdot(a_pi[window], b_pi[window]) + model.mass**2 * np.vdot(a_psi[window], b_psi[window])
    return grid.dx * nodes + cells / grid.dx


def _energy(model: ModelSpec, grid: Grid, u, d=None) -> tuple[float, float]:
    """(H, energy norm) of a (psi, pi) pair from one evaluation of the full form."""
    norm2 = float(_energy_form(model, grid, u, u, d_a=d).real)
    pot = sum(potential(o, u[0][i]) for o, i in zip(model.oscillators, grid.oscillator_nodes))
    return 0.5 * norm2 + pot, math.sqrt(norm2)


def _seminorm(model: ModelSpec, grid: Grid, u, window, d=None) -> float:
    return math.sqrt(float(_energy_form(model, grid, u, u, window, d).real))


def _charge(grid: Grid, u) -> float:
    return -grid.dx * float(np.vdot(*u).imag)


def hamiltonian(model: ModelSpec, grid: Grid, state: FieldState) -> float:
    """Discrete energy: node terms, forward differences on cells; psi, pi must be 0 at the end nodes."""
    _check_state(grid, state)
    with np.errstate(over="ignore", invalid="ignore"):
        return _energy(model, grid, (state.psi, state.pi))[0]


def charge(model: ModelSpec, grid: Grid, state: FieldState) -> float:
    """Q = -integral Im(conj(psi) pi) dx, conserved by the phase symmetry; psi, pi must be 0 at the end nodes."""
    _check_state(grid, state)
    return _charge(grid, (state.psi, state.pi))


def energy_norm(model: ModelSpec, grid: Grid, state: FieldState) -> float:
    """Full energy norm sqrt(|pi|^2 + |psi'|^2 + m^2 |psi|^2), no potentials; psi, pi must be 0 at the end nodes."""
    _check_state(grid, state)
    return _seminorm(model, grid, (state.psi, state.pi), slice(None))


def apriori_bound(model: ModelSpec, grid: Grid, initial: FieldState) -> float:
    """Upper bound on the energy norm along the flow, from the potential floors.

    With U_J >= A_J - B_J |psi|^2 and sum B_J < m, conservation of H gives
    |Psi(t)|_E^2 <= 2m (H(Psi_0) - sum A_J) / (m - sum B_J).
    """
    consts = lower_bound_constants(model)
    h0 = hamiltonian(model, grid, initial)
    m = model.mass
    val = 2.0 * m * (h0 - sum(consts.A)) / (m - sum(consts.B))
    return math.sqrt(max(val, 0.0))


def local_seminorm(model: ModelSpec, grid: Grid, state: FieldState, R: float) -> float:
    """Energy seminorm over the window [-R, R] (clipped to the grid with a warning)."""
    return _seminorm(model, grid, (state.psi, state.pi), grid.window(R))


def _metric_windows(grid: Grid, r_max: int) -> tuple[slice, list[slice]]:
    """The window of radius r_max and, as slices of its nodes, those of radii 1..r_max; a clipped one warns."""
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    windows = [grid.window(float(R)) for R in range(1, r_max + 1)]
    outer = windows[-1]
    # every window lies inside the outer one; an empty slice stays empty when shifted
    return outer, [slice(w.start - outer.start, w.stop - outer.start) for w in windows]


def _metric(model: ModelSpec, grid: Grid, u, windows: list[slice]) -> float:
    """sum 2^-R |u|_{E,R} over R = 1..r_max, u a (psi, pi) pair on the nodes of the outer window."""
    d = np.zeros_like(u[0])  # every radius reads its cells from this one difference buffer
    np.subtract(u[0][1:], u[0][:-1], out=d[:-1])
    return sum(0.5**R * _seminorm(model, grid, u, w, d) for R, w in enumerate(windows, 1))


def metric_dist(model: ModelSpec, grid: Grid, a: FieldState, b: FieldState, r_max: int) -> float:
    """Weighted sum 2^-R |A - B|_{E,R} over R = 1..r_max (a metric on states)."""
    outer, windows = _metric_windows(grid, r_max)
    return _metric(model, grid, (a.psi[outer] - b.psi[outer], a.pi[outer] - b.pi[outer]), windows)


def _solitary_sample(model: ModelSpec, grid: Grid, wave: SolitaryWave, window: slice = slice(None),
                     phase: complex = 1.0 + 0j) -> tuple[np.ndarray, np.ndarray]:
    """(phi, -i omega phi) rotated by a unit phase at the nodes of a window, 0 at the Dirichlet end nodes."""
    phi = profile_eval(model, wave, grid.x[window]) * phase
    start, stop, _ = window.indices(grid.count)
    phi[[i - start for i in (0, grid.count - 1) if start <= i < stop]] = 0.0
    return phi, -1j * wave.omega * phi


def solitary_state(model: ModelSpec, grid: Grid, wave: SolitaryWave, phase: complex = 1.0 + 0j) -> FieldState:
    """Sample (phi, -i omega phi), optionally rotated by a unit phase.

    The Dirichlet nodes are zeroed exactly (the profile tail there is below
    roundoff on any adequately sized domain) so they stay zero under the flow.
    """
    return FieldState(*_solitary_sample(model, grid, wave, phase=phase), 0.0)


def perturbed_solitary_state(model: ModelSpec, grid: Grid, wave: SolitaryWave, noise_amplitude: float,
                             seed: int) -> FieldState:
    """Solitary state plus seeded smooth noise carrying a fixed energy fraction.

    The noise is a sum of five complex-amplitude Gaussians (widths 10 to 25
    times 0.02 in units of x, on any grid; centers near the oscillators) added
    to psi and scaled so its own energy norm squared is noise_amplitude times
    that of the solitary state.
    """
    base = solitary_state(model, grid, wave)
    rng = np.random.default_rng(seed)
    x = grid.x
    lo, hi = model.positions[0] - 2.0, model.positions[-1] + 2.0
    noise = np.zeros(grid.count, dtype=complex)
    for _ in range(5):
        center = rng.uniform(lo, hi)
        width = rng.uniform(10.0, 25.0) * _NOISE_WIDTH_UNIT
        amp = rng.normal() + 1j * rng.normal()
        noise += amp * np.exp(-((x - center) ** 2) / (2.0 * width**2))
    noise[0] = noise[-1] = 0.0
    carrier = FieldState(noise, np.zeros_like(noise), 0.0)
    n_norm = energy_norm(model, grid, carrier)
    target = math.sqrt(noise_amplitude) * energy_norm(model, grid, base)
    if n_norm > 0:
        noise *= target / n_norm
    return FieldState(base.psi + noise, base.pi, 0.0)


def evolve(model: ModelSpec, grid: Grid, state: FieldState, T: float, dt: float, observe_every: int = 1,
           seminorm_radii: tuple[float, ...] = (), extra_probe_nodes: tuple[int, ...] = (),
           ) -> tuple[ObserverSeries, FieldState]:
    """Run round(T/|dt|) steps of size dt, sampling observers every observe_every steps.

    dt < 0 runs the flow backwards, from t0 to t0 - T.  Returns the series and
    the final state.  Samples land at steps 0, observe_every,
    2*observe_every, ...; the final state is returned even when it does not
    fall on a sample.  Traces are recorded at the oscillator nodes followed
    by any extra probe nodes.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if observe_every < 1:
        raise ValueError("observe_every must be at least 1")
    _check_step(grid, state, dt)
    n_steps = int(round(T / abs(dt))) if T > 0 else 0
    windows = {float(r): grid.window(float(r)) for r in seminorm_radii}
    nodes = np.array(grid.oscillator_nodes + tuple(extra_probe_nodes), dtype=np.intp)
    n = n_steps // observe_every + 1
    times, energy, charges, norms = np.empty((4, n))
    seminorms = {r: np.empty(n) for r in windows}
    traces_psi, traces_pi = np.empty((2, n, len(nodes)), dtype=complex)

    def observe(k, psi, pi, d):
        j = k // observe_every
        u = (psi, pi)
        np.subtract(psi[1:], psi[:-1], out=d[:-1])  # the cell differences, at their left nodes
        times[j] = state.t + k * dt
        energy[j], norms[j] = _energy(model, grid, u, d)
        charges[j] = _charge(grid, u)
        for r, window in windows.items():
            seminorms[r][j] = _seminorm(model, grid, u, window, d)
        traces_psi[j] = psi[nodes]
        traces_pi[j] = pi[nodes]

    final = _kdk(model, grid, state, dt, n_steps, observe_every, observe)
    series = ObserverSeries(times, energy, charges, norms, seminorms, traces_psi, traces_pi, dt * observe_every)
    return series, final


@dataclass(frozen=True)
class ManifoldDistance:
    dist: float
    best_omega: float  # nan when the zero wave is the closest point
    wave: SolitaryWave | None


def _candidate_dist(model: ModelSpec, grid: Grid, u, wave: SolitaryWave, outer: slice, windows: list[slice]) -> float:
    """Metric distance from u, a (psi, pi) pair on the nodes of the outer window, to the closest phase of a wave."""
    psi, pi = _solitary_sample(model, grid, wave, outer)
    # the unit phase minimizing |u - e^{i theta} (psi, pi)|_E, in closed form
    inner = _energy_form(model, grid, u, (psi, pi))
    phase = inner.conjugate() / abs(inner) if abs(inner) != 0.0 else 1.0 + 0j
    return _metric(model, grid, (u[0] - psi * phase, u[1] - pi * phase), windows)


def dist_to_manifold(model: ModelSpec, grid: Grid, state: FieldState, omega_grid,
                     r_max: int) -> ManifoldDistance:
    """Metric distance from a state to the solitary manifold.

    Scans the frequency grid (warm-starting each profile solve from the
    previous one), optimizes the global phase in closed form per candidate,
    then refines around the best grid point by 24 golden-section steps.
    Candidates are sampled on the metric's window [-r_max, r_max] only.  The
    zero wave is always a candidate.  Frequencies where the solve fails are
    skipped; it is an error only if every frequency fails.
    """
    omegas = [float(w) for w in omega_grid]
    if not omegas:
        raise ValueError("omega_grid must be nonempty")
    m = model.mass
    if any(abs(w) >= m for w in omegas):
        raise ValueError("omega_grid must lie strictly inside (-m, m)")

    outer, windows = _metric_windows(grid, r_max)
    u = (state.psi[outer], state.pi[outer])
    best = ManifoldDistance(_metric(model, grid, u, windows), float("nan"), None)  # the zero wave

    def try_omega(w: float, start) -> tuple[float, SolitaryWave] | None:
        try:
            wave = solve_profile(model, w, start)
        except (NoConvergence, ConvergedToZero):
            return None
        return _candidate_dist(model, grid, u, wave, outer, windows), wave

    # fallback Newton starts after the warm start, for models with several branches
    default_guesses = [[s + 0j] * model.count for s in _NEWTON_STARTS]

    warm = None
    solved: set[float] = set()
    for w in omegas:
        starts = ([warm] if warm is not None else []) + default_guesses
        hit = next(filter(None, (try_omega(w, s) for s in starts)), None)
        if hit is None:
            continue
        solved.add(w)
        warm = hit[1].amplitudes
        if hit[0] < best.dist:
            best = ManifoldDistance(hit[0], w, hit[1])
    if not solved:
        raise NoConvergence(omegas[0], float("inf"))

    if best.wave is not None and len(omegas) > 1:
        ordered = sorted(solved)
        idx = ordered.index(best.best_omega)
        lo = ordered[max(idx - 1, 0)]
        hi = ordered[min(idx + 1, len(ordered) - 1)]
        if hi > lo:
            invphi = (math.sqrt(5.0) - 1.0) / 2.0
            a, b = lo, hi
            amps = best.wave.amplitudes
            c, d = b - invphi * (b - a), a + invphi * (b - a)
            fc, fd = try_omega(c, amps), try_omega(d, amps)
            for _ in range(24):
                if fc is None or fd is None:
                    break
                if fc[0] < fd[0]:
                    b, d, fd = d, c, fc
                    c = b - invphi * (b - a)
                    fc = try_omega(c, amps)
                else:
                    a, c, fc = c, d, fd
                    d = a + invphi * (b - a)
                    fd = try_omega(d, amps)
            for f, w in ((fc, c), (fd, d)):
                if f is not None and f[0] < best.dist:
                    best = ManifoldDistance(f[0], w, f[1])
    return best
