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

One loop, ``_kdk``, steps in place on three buffers cut from one block at fixed
offsets; its observer is bound to the live buffers once per run and must copy
what it keeps.  The mass term sits in the stencil diagonal and the half kick
dt/2 acc is one pre-scaled stencil.  The steps run in a small C library,
``_passes.c``, compiled on first use and cached: one call per sample interval,
or per run when nothing observes, each step one fused sweep over the field
and then the oscillator nodes' forces, each float's arithmetic numpy's bit for
bit.

H, Q, the energy norm, the local seminorms, the metric and the phase fit all
evaluate one energy form, in the same library and in one fixed order of its
own, so their bits depend on neither the CPU nor a BLAS.  Two entries reach
it, each bound once to its arrays.  An observer sample is one call: it writes
a whole row of the series (t, H, Q, the energy norm, each seminorm and the
traces), the potentials ``model._at_node``'s at each oscillator node, and
``hamiltonian``, ``charge``, ``energy_norm`` and ``local_seminorm`` are such a
sample of one row; it doubles as the check that the field is finite.  The
steps, the samples and the profile solves share one block of the model's
coefficients, packed once per model object.  The metric reads only the nodes
with |x| <= r_max, so it, the phase fit and the manifold distance's candidate
waves are evaluated there alone, a phase-fit distance in one call.

The manifold distance's frequency scan, solved and sampled on that window in
one compiled call and kept per (model, grid, frequencies, window), and its
search, another call whose Brent constants are the library's, are
``dist_to_manifold``'s.  The candidates, solitary_state and
perturbed_solitary_state sample the profile in the library, with libm's exp,
so their bits do not depend on numpy's SIMD dispatch.
"""

from __future__ import annotations

import math
import operator
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .model import ModelSpec, lower_bound_constants
from .solitary import NoConvergence, SolitaryWave, _compiled, _newton_starts, _wave

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
        if self._clips(R):
            _warn_clipped(R)
        return self._nodes(R)

    def _clips(self, R: float) -> bool:
        return -R < self.x_min or R > self.x_max

    def _nodes(self, R: float) -> slice:
        return slice(int(np.searchsorted(self.x, -R, "left")), int(np.searchsorted(self.x, R, "right")))


def _warn_clipped(R: float):
    """Warn that the window of radius R exceeds the grid, naming the first caller outside this package, however deep
    the call."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(f"seminorm window [-{R}, {R}] exceeds the grid; clipping", stacklevel=level)


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
    sample_dt: float


def build_grid(model: ModelSpec, x_min: float, x_max: float, dx_target: float) -> Grid:
    """Choose dx <= dx_target dividing all oscillator gaps, anchored at X_1.

    The spacing is the largest integer fraction of the rational gcd of the
    gaps that fits under dx_target; the grid then extends left and right by
    whole steps until it covers [x_min, x_max].  Raises NoCommensurateGrid
    when the gaps have no common divisor within a factor 10^6 of the target
    (irrational gap ratios at this resolution).
    """
    for name, value in (("x_min", x_min), ("x_max", x_max), ("dx_target", dx_target)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
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


def _check_run(model: ModelSpec, grid: Grid, dt: float, T: float = 0.0, observe_every: int = 1) -> int:
    """Refuse, before it starts, a run of duration T in steps of dt sampled every observe_every; return its steps.

    The step must satisfy the leapfrog stability (CFL) condition of the
    massive lattice field, |dt| < 2/sqrt(m^2 + 4/dx^2), which lies below dx
    whenever m > 0.  The oscillator nodes can lower this limit: their force
    derivatives add to the stencil's diagonal, so a step just under it may
    still grow at a node.
    """
    if not 0 <= T < math.inf:  # a nan too
        raise ValueError(f"T must be finite and nonnegative, got {T}")
    if observe_every < 1:
        raise ValueError("observe_every must be at least 1")
    limit = 2.0 / math.sqrt(model.mass**2 + 4.0 / grid.dx**2)
    if not abs(dt) < limit:  # a nan too
        raise ValueError(f"CFL violated: |dt|={abs(dt)} must be below 2/sqrt(m^2 + 4/dx^2)={limit} (dx={grid.dx})")
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    return int(round(T / abs(dt)))


def _sample_arrays(n_steps: int, observe_every: int, radii, traced: int) -> tuple[np.ndarray, np.ndarray]:
    """A run's series, a row per sample: the columns t, H, Q, the energy norm and each radius' seminorm as one block,
    and the psi and pi traces at the traced nodes as another, of shape (2, samples, traced).

    numpy refuses a run too large to hold here, with MemoryError or ValueError.
    """
    n = n_steps // observe_every + 1
    return np.empty((4 + len(radii), n)), np.empty((2, n, traced), dtype=complex)


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
         observe_every: int = 1, bind=None) -> FieldState:
    """n_steps kick-drift-kick steps of size dt from state, in place on private buffers.

    bind(psi, pi), if given, is called once with the live buffers and returns
    observe(k).  That samples them at step 0 and every observe_every steps
    and returns the squared energy norm of (psi, pi).  The norm is finite only if
    every psi and pi is, so psi is checked at a sample past step 0 only when
    it is not; a non-finite psi there, or psi or pi at the end, raises
    FloatingPointError, and a finite field whose energy overflows runs on.

    A step is pi += kick; psi += pi dt; kick = ((psi[+1] - c psi) + psi[-1])
    dt/(2 dx^2), c = 2 + m^2 dx^2, plus F_J dt/(2 dx) at the oscillator nodes;
    pi += kick.  It reads (psi, pi) alone, so a restart continues bit for bit.
    The steps run in the compiled ``_passes`` library, on float64 views of the
    complex buffers (a real multiply per float is numpy's complex-by-real
    product up to the sign of an exact zero), one call per sample interval of
    observe_every steps, and one for the whole run when nothing observes.  In
    a call, each step is one sweep, which applies the last step's second half
    kick with this one's first, drifts and takes the stencil, and then the node
    forces; the call applies its last step's second half kick before it
    returns, so a sample sees the stepped field.  The three buffers are slices
    of one page-aligned block, 1 KB apart modulo 4 KB whatever the heap held
    before, so their streams alias in the cache alike.

    The node forces are ``model._at_node``'s arithmetic on numpy's scalars,
    transcribed to C: |psi|^2 as libm's pow(hypot(re, im), 2).  Where |psi|^2
    overflows (|psi| above about 1.3e154) the force is nan, as on numpy
    scalars, and the run raises FloatingPointError at a later sample or at the
    end.  A library that cannot be built raises OSError before the first step.
    """
    stride = -(-16 * grid.count // 4096) * 4096 + 1024  # bytes from one buffer to the next
    raw = np.empty(3 * stride + 4096, dtype=np.uint8)
    start = -raw.ctypes.data % 4096
    psi, pi, kick = (raw[start + j * stride:][:16 * grid.count].view(complex) for j in range(3))
    psi[:], pi[:], kick[0], kick[-1] = state.psi, state.pi, 0.0, 0.0  # kick's end nodes stay 0
    run = _compiled().bind(psi, pi, kick, dt, 2.0 + model.mass**2 * grid.dx**2, 0.5 * dt / grid.dx**2, model,
                           grid.oscillator_nodes, 0.5 * dt / grid.dx)
    observe = None if bind is None else bind(psi, pi)
    if observe is None:
        run(0, n_steps)
    else:
        observe(0)
        for k in range(observe_every, n_steps + 1, observe_every):
            run(k > observe_every, observe_every)
            if not math.isfinite(observe(k)):
                _require_finite(state.t + k * dt, psi)
        if n_steps % observe_every:
            run(n_steps >= observe_every, n_steps % observe_every)
    t = state.t + n_steps * dt
    _require_finite(t, psi, pi)
    return FieldState(psi, pi, t)


def step(model: ModelSpec, grid: Grid, state: FieldState, dt: float) -> FieldState:
    """One kick-drift-kick step; dt < 0 steps backwards (the flow is reversible)."""
    _check_run(model, grid, dt)
    _check_state(grid, state)
    return _kdk(model, grid, state, dt, 1)


def _observer(model: ModelSpec, grid: Grid, psi: np.ndarray, pi: np.ndarray, series: tuple, windows: dict,
              every: int = 1, t0: float = 0.0, dt: float = 0.0):
    """The compiled observer sample bound to (psi, pi): observe(k) writes row k // every of series and returns |.|_E^2.

    series is _sample_arrays' pair and windows maps its seminorm radii to their node slices.
    """
    return _compiled().observer(psi, pi, model.mass**2, grid.dx, model, grid.oscillator_nodes,
                                [(w.start, w.stop) for w in windows.values()], *series, every, t0, dt)


def _functionals(model: ModelSpec, grid: Grid, state: FieldState, windows: dict | None = None) -> list[float]:
    """[t, H, Q, energy norm, the seminorm of each window] of a state: one observer sample, of one row."""
    windows = windows or {}
    series = _sample_arrays(0, 1, windows, len(grid.oscillator_nodes))
    _observer(model, grid, state.psi, state.pi, series, windows)(0)
    return series[0][:, 0].tolist()


def hamiltonian(model: ModelSpec, grid: Grid, state: FieldState) -> float:
    """Discrete energy: node terms, forward differences on cells; psi, pi must be 0 at the end nodes."""
    _check_state(grid, state)
    return _functionals(model, grid, state)[1]


def charge(model: ModelSpec, grid: Grid, state: FieldState) -> float:
    """Q = -integral Im(conj(psi) pi) dx, conserved by the phase symmetry; psi, pi must be 0 at the end nodes."""
    _check_state(grid, state)
    return _functionals(model, grid, state)[2]


def energy_norm(model: ModelSpec, grid: Grid, state: FieldState) -> float:
    """Full energy norm sqrt(|pi|^2 + |psi'|^2 + m^2 |psi|^2), no potentials; psi, pi must be 0 at the end nodes."""
    _check_state(grid, state)
    return _functionals(model, grid, state)[3]


def apriori_bound(model: ModelSpec, grid: Grid, initial: FieldState) -> float:
    """Upper bound on the energy norm along the flow, from the potential floors.

    With U_J >= A_J - B_J |psi|^2 and sum B_J < m, conservation of H gives
    |Psi(t)|_E^2 <= 2m (H(Psi_0) - sum A_J) / (m - sum B_J).
    """
    return _energy_norm_bound(model, hamiltonian(model, grid, initial))


def _energy_norm_bound(model: ModelSpec, h0: float) -> float:
    """apriori_bound of any initial state whose energy is h0."""
    consts = lower_bound_constants(model)
    m = model.mass
    val = 2.0 * m * (h0 - sum(consts.A)) / (m - sum(consts.B))
    return math.sqrt(max(val, 0.0))


def local_seminorm(model: ModelSpec, grid: Grid, state: FieldState, R: float) -> float:
    """Energy seminorm over the window [-R, R] (clipped to the grid with a warning)."""
    return _functionals(model, grid, state, {R: grid.window(R)})[4]


def _metric_windows(grid: Grid, r_max: int) -> tuple[slice, tuple[slice, ...]]:
    """The window of radius r_max and, as slices of its nodes, those of radii 1..r_max; each clipped one warns, on
    every call."""
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    outer, windows, clipped = _window_nodes(grid, operator.index(r_max))
    for R in clipped:
        _warn_clipped(R)
    return outer, windows


@lru_cache(maxsize=16)
def _window_nodes(grid: Grid, r_max: int) -> tuple[slice, tuple[slice, ...], tuple[float, ...]]:
    """_metric_windows' slices, found once per (grid, r_max), and the radii whose windows the grid clips."""
    radii = [float(R) for R in range(1, r_max + 1)]
    windows = [grid._nodes(R) for R in radii]
    outer = windows[-1]
    # every window lies inside the outer one; an empty slice stays empty when shifted
    return (outer, tuple(slice(w.start - outer.start, w.stop - outer.start) for w in windows),
            tuple(R for R in radii if grid._clips(R)))


def _bound_metric(model: ModelSpec, grid: Grid, u, windows: list[slice]):
    """The compiled metric of u, a (psi, pi) pair on the nodes of the outer window, and its phase-fit distances."""
    return _compiled().Metric(*u, model.mass**2, grid.dx, [(w.start, w.stop) for w in windows])


def _metric(model: ModelSpec, grid: Grid, u, windows: list[slice]) -> float:
    """sum 2^-R |u|_{E,R} over R = 1..r_max, left to right, u a (psi, pi) pair on the nodes of the outer window."""
    return _bound_metric(model, grid, u, windows).dist()


def metric_dist(model: ModelSpec, grid: Grid, a: FieldState, b: FieldState, r_max: int) -> float:
    """Weighted sum 2^-R |A - B|_{E,R} over R = 1..r_max (a metric on states)."""
    outer, windows = _metric_windows(grid, r_max)
    return _metric(model, grid, (a.psi[outer] - b.psi[outer], a.pi[outer] - b.pi[outer]), windows)


def _end_nodes(grid: Grid, window: slice) -> list[int]:
    """The Dirichlet end nodes 0 and count - 1 as indices among a window's nodes, each -1 where the window lacks it."""
    start, stop, _ = window.indices(grid.count)
    return [i - start if start <= i < stop else -1 for i in (0, grid.count - 1)]


def _solitary_sample(model: ModelSpec, grid: Grid, wave: SolitaryWave, window: slice = slice(None),
                     phase: complex = 1.0 + 0j) -> tuple[np.ndarray, np.ndarray]:
    """(phi, -i omega phi) rotated by a unit phase at the nodes of a window, 0 at the Dirichlet end nodes.

    One compiled call (kgp_wave), whose profile is profile_eval's: the manifold
    distance's scan and refinement sample their candidates with the same code.
    """
    return _compiled().wave(grid.x[window], model.positions, wave.kappa, wave.amplitudes, wave.omega, phase,
                            _end_nodes(grid, window))


def solitary_state(model: ModelSpec, grid: Grid, wave: SolitaryWave, phase: complex = 1.0 + 0j) -> FieldState:
    """Sample (phi, -i omega phi), optionally rotated by a unit phase.

    The Dirichlet nodes are zeroed exactly so they stay zero under the flow;
    a simulate run reports what that cuts as initial_wall_clip.
    """
    return FieldState(*_solitary_sample(model, grid, wave, phase=phase), 0.0)


def perturbed_solitary_state(model: ModelSpec, grid: Grid, wave: SolitaryWave, noise_amplitude: float,
                             seed: int) -> FieldState:
    """Solitary state plus seeded smooth noise carrying a fixed energy fraction.

    The noise is a sum of five complex-amplitude Gaussians (widths 10 to 25
    times 0.02 in units of x, on any grid; centers near the oscillators) added
    to psi and scaled so its own energy norm squared is noise_amplitude times
    that of the solitary state.  The Gaussians take libm's exp, as the
    profile does, so the state does not depend on numpy's SIMD dispatch.
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
        noise += amp * _compiled().exp(-((x - center) ** 2) / (2.0 * width**2))
    noise[0] = noise[-1] = 0.0
    carrier = FieldState(noise, np.zeros_like(noise), 0.0)
    n_norm = energy_norm(model, grid, carrier)
    target = math.sqrt(noise_amplitude) * energy_norm(model, grid, base)
    if n_norm > 0:
        noise *= target / n_norm
    return FieldState(base.psi + noise, base.pi, 0.0)


def evolve(model: ModelSpec, grid: Grid, state: FieldState, T: float, dt: float, observe_every: int = 1,
           seminorm_radii: tuple[float, ...] = ()) -> tuple[ObserverSeries, FieldState]:
    """Run round(T/|dt|) steps of size dt, sampling observers every observe_every steps.

    dt < 0 runs the flow backwards, from t0 to t0 - T.  Returns the series and
    the final state.  Samples land at steps 0, observe_every,
    2*observe_every, ...; the final state is returned even when it does not
    fall on a sample.  Traces are recorded at the oscillator nodes.
    """
    n_steps = _check_run(model, grid, dt, T, observe_every)
    _check_state(grid, state)
    windows = {float(r): grid.window(float(r)) for r in seminorm_radii}
    series = _sample_arrays(n_steps, observe_every, windows, len(grid.oscillator_nodes))

    def bind(psi, pi):
        return _observer(model, grid, psi, pi, series, windows, observe_every, state.t, dt)

    final = _kdk(model, grid, state, dt, n_steps, observe_every, bind)
    (times, energy, charges, norms, *seminorms), traces = series
    return ObserverSeries(times, energy, charges, norms, dict(zip(windows, seminorms)), *traces,
                          dt * observe_every), final


@dataclass(frozen=True)
class ManifoldDistance:
    dist: float
    best_omega: float  # nan when the zero wave is the closest point
    wave: SolitaryWave | None


@lru_cache(maxsize=8)
def _frequency_scan(model: ModelSpec, grid: Grid, omega_bits: bytes, outer: tuple[int, int]):
    """The half of dist_to_manifold that no state enters: the solved waves of its frequency scan, sampled on the
    metric's outer window and bound for the search of the closest wave, as a _passes.Scan (kgp_scan's comment
    gives the starts).  omega_bits is the frequency grid as float64 bytes, so -0.0 and 0.0 key apart; outer is the
    (start, stop) of the metric's outer window."""
    window = slice(*outer)
    return _compiled().Scan(model, np.frombuffer(omega_bits), _newton_starts(model), grid.x[window],
                            _end_nodes(grid, window))


def dist_to_manifold(model: ModelSpec, grid: Grid, state: FieldState, omega_grid,
                     r_max: int) -> ManifoldDistance:
    """Metric distance from a state to the solitary manifold.

    Scans the frequency grid (warm-starting each profile solve from the
    previous one), optimizes the global phase in closed form per candidate,
    then refines between the best grid point's solved neighbours by Brent's
    method, to the frequency resolution (hi - lo) ((sqrt 5 - 1)/2)^24 of 24
    golden-section steps; each refinement solve starts from the amplitudes
    of the nearest solved frequency, and a failed one ends the refinement.
    Candidates are sampled on the metric's window [-r_max, r_max] only.  The
    zero wave is always a candidate.  Frequencies where the solve fails are
    skipped; it is an error only if every frequency fails.

    No state enters the scan's solves and samples, so they are kept for the 8
    most recent (model, grid, frequency grid, window) keys, the frequencies by
    their float64 bits: a call on a kept key solves only its refinement, about
    7 profile solves against about 22 cold, with results equal bit for bit.
    The scan is one compiled call (kgp_scan), and the rest another
    (kgp_nearest), each on the point solve and the sampler behind
    solve_profile and profile_eval.
    """
    omegas = [float(w) for w in omega_grid]
    if not omegas:
        raise ValueError("omega_grid must be nonempty")
    m = model.mass
    if not all(abs(w) < m for w in omegas):  # a nan too
        raise ValueError("omega_grid must lie strictly inside (-m, m)")

    outer, windows = _metric_windows(grid, r_max)
    metric = _bound_metric(model, grid, (state.psi[outer], state.pi[outer]), windows)
    scan = _frequency_scan(model, grid, np.array(omegas).tobytes(), (outer.start, outer.stop))
    if not len(scan.rows):
        raise NoConvergence(omegas[0], float("inf"))
    dist, row, _ = scan.closest(metric)
    if row is None:
        return ManifoldDistance(dist, float("nan"), None)  # the zero wave
    wave = _wave(row)
    return ManifoldDistance(dist, wave.omega, wave)
