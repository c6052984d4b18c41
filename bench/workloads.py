"""The benchmark workloads: inputs built from the seed, operations, output checks.

Each workload is a closed loop with one client: ``run_pass`` issues its
operations one after another through ``ops``, and each operation completes
before the next starts.  Operations go through the package's public entry
points only: ``kgpoint.cli.main`` for commands, the ``kgpoint`` API for the
analysis calls.  The program sees nothing but the configs and states built
here.

Every operation carries an output check that returns a list of problems
(empty when the output is right).  Checks use tolerances, so a reordering of
floating-point operations at roundoff level still passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import kgpoint as kg
from kgpoint import config as kconfig

MASS = 1.0
R_MAX = 5
DT = 0.009
# Kick-drift-kick drifts the energy at O(dt^2); across perturbation seeds the
# README experiment shows up to ~12 dt^2, so 100 dt^2 leaves room for rough
# data while an unstable or non-symplectic stepper still fails by far.
ENERGY_DRIFT_DT2 = 100.0
CHARGE_DRIFT_TOL = 1e-12  # charge is a bilinear invariant: roundoff only
BRANCH_RESIDUAL_TOL = 1e-11
JUMP_RESIDUAL_TOL = 1e-10

README_MODEL = """[model]
mass = 1.0
positions = 0.0 0.2
coefficients_1 = 0 -2 1
coefficients_2 = 0 -2 1
"""


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_columns(path, names):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [np.array([float(r[n]) for r in rows]) for n in names]


def _trace_error(path, solution, t_offset):
    """Max |psi(X_1, t) - exact| over a stored trace, relative to the exact peak."""
    t, re, im = _read_columns(path, ("t", "psi1_re", "psi1_im"))
    exact = kg.wide_gap_eval(solution, 0.0, t + t_offset)[0]
    return float(np.max(np.abs(re + 1j * im - exact))) / float(np.max(np.abs(exact)))


def _summary_problems(summary, steps, count, dt):
    problems = []
    if summary["steps"] != steps or summary["grid"]["count"] != count:
        problems.append(f"ran {summary['steps']} steps on {summary['grid']['count']} nodes, "
                        f"expected {steps} on {count}")
    if summary["bound_violations"] != 0:
        problems.append(f"a priori bound violated {summary['bound_violations']} times")
    if not summary["max_charge_drift"] <= CHARGE_DRIFT_TOL:
        problems.append(f"charge drift {summary['max_charge_drift']:.3e} > {CHARGE_DRIFT_TOL:g}")
    energy_tol = ENERGY_DRIFT_DT2 * dt**2
    if not summary["max_energy_drift"] <= energy_tol:
        problems.append(f"energy drift {summary['max_energy_drift']:.3e} > {energy_tol:.3e}")
    return problems


class Attraction:
    """The README attraction experiment: ``simulate`` then ``spectrum`` on its trace."""

    name = "attraction"
    why = ("the paper's central experiment: stepping and observers dominate "
           "(5001 nodes, 10000 steps, 3 seminorm radii)")
    main_kind = "simulate"
    work_name = "node_steps_per_s"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        half, T, self.windows = (10, 12, "1:3,5:3,8:3") if tiny else (50, 90, "10:20,40:20,70:20")
        self.dir = workdir
        self.config = workdir / "attraction.ini"
        workdir.mkdir(parents=True, exist_ok=True)
        self.config.write_text(
            README_MODEL
            + f"[grid]\nx_min = {-half}\nx_max = {half}\ndx_target = 0.02\n"
            + f"[run]\nT = {T}\ndt = {DT}\nobserve_every = 5\nseminorm_radii = 1 2 5\nr_max = {R_MAX}\n"
            + f"[initial_data]\nkind = perturbed_solitary\nomega = 0.4\nnoise_amplitude = 0.1\nseed = {seed}\n"
            + f"[spectral]\nwindows = {self.windows}\ntaper = hann\n"
        )
        cfg = kconfig.parse_config(self.config)
        self.count = kg.build_grid(cfg.model, cfg.grid.x_min, cfg.grid.x_max, cfg.grid.dx_target).count
        self.steps = int(round(T / DT))

    def run_pass(self, ops):
        out = str(self.dir / "run")
        ops.cli("simulate", ["simulate", "--config", str(self.config), "--out", out],
                self.check_simulate, work=self.count * self.steps)
        ops.cli("spectrum", ["spectrum", "--trace", f"{out}/observers.csv", "--windows", self.windows,
                             "--out", out], self.check_spectrum)

    def check_simulate(self, _):
        return _summary_problems(_read_json(self.dir / "run" / "summary.json"), self.steps, self.count, DT)

    def check_spectrum(self, _):
        windows = _read_json(self.dir / "run" / "spectrum_summary.json")
        if len(windows) != self.windows.count(":"):
            return [f"{len(windows)} spectrum windows, expected {self.windows.count(':')}"]
        return [f"window at t0={w['t0']}: dominant {w['dominant']} not in (0, {MASS})"
                for w in windows if w["dominant"] is None or not 0.0 < w["dominant"] < MASS]


class WideGapRestart:
    """Exact wide-gap wave: ``counterexample --simulate``, a restart from its state, a spectrum."""

    name = "wide_gap_restart"
    why = ("stepping with only H and Q observed, a full field state written and read back, "
           "and an exact answer to check against")
    main_kind = "evolve"
    work_name = "node_steps_per_s"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = np.random.default_rng(seed)
        # beta < 0 keeps the potentials bounded below; alpha > 2 kappa / (1 + e^{-kappa L})
        # ~ 1.66 is then the family's sign condition.  L = pi fixes the grid.
        self.alpha, self.beta = float(rng.uniform(1.9, 2.4)), float(rng.uniform(-1.5, -0.5))
        self.solution = kg.wide_gap_construct(MASS, math.pi, self.alpha, self.beta)
        self.half, self.T, self.window = (8.0, 8.0, "1:4") if tiny else (30.0, 60.0, "10:40")
        model = self.solution.to_model()
        grid = kg.build_grid(model, -self.half, self.solution.L + self.half, 0.02)
        self.dt = 0.45 * grid.dx  # the step the counterexample command takes
        self.count = grid.count
        self.steps = int(round(self.T / self.dt))
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "restart.ini"
        self.config.write_text(
            kconfig.model_to_ini(model)
            + f"[grid]\nx_min = {-self.half!r}\nx_max = {self.solution.L + self.half!r}\ndx_target = 0.02\n"
            + f"[run]\nT = {self.T!r}\ndt = {self.dt!r}\nobserve_every = 5\n"
            + f"[initial_data]\nkind = file\npath = {workdir / 'first' / 'final_state.csv'}\n"
        )

    def run_pass(self, ops):
        first, second = self.dir / "first", self.dir / "second"
        work = self.count * self.steps
        ops.cli("evolve", ["counterexample", "--kind", "wide_gap", "--alpha", repr(self.alpha),
                           "--beta", repr(self.beta), "--simulate", "--T", repr(self.T),
                           "--half-width", repr(self.half), "--out", str(first)],
                self.check_first, work=work)
        ops.cli("evolve", ["simulate", "--config", str(self.config), "--out", str(second)],
                self.check_second, work=work)
        ops.cli("spectrum", ["spectrum", "--trace", str(second / "observers.csv"), "--windows", self.window,
                             "--out", str(second)], self.check_spectrum)

    def check_first(self, _):
        problems = []
        residual = _read_json(self.dir / "first" / "verification.json")["max_jump_residual"]
        if not residual <= JUMP_RESIDUAL_TOL:
            problems.append(f"jump residual {residual:.3e} > {JUMP_RESIDUAL_TOL:g}")
        # at alpha = 1.8, just below this family's range, the error is 1.7e-3 of the peak
        err = _trace_error(self.dir / "first" / "observers.csv", self.solution, 0.0)
        if not err <= 5e-3:
            problems.append(f"first segment trace error {err:.3e} > 5e-3 of the peak")
        return problems

    def check_second(self, _):
        problems = _summary_problems(_read_json(self.dir / "second" / "summary.json"),
                                     self.steps, self.count, self.dt)
        # the error grows along the run: 3.4e-3 of the peak at alpha = 1.8
        err = _trace_error(self.dir / "second" / "observers.csv", self.solution, self.steps * self.dt)
        if not err <= 1e-2:
            problems.append(f"second segment trace error {err:.3e} > 1e-2 of the peak")
        return problems

    def check_spectrum(self, _):
        (est,) = _read_json(self.dir / "second" / "spectrum_summary.json")
        # a real trace peaks at +-omega; allow one frequency bin
        tol = 2.0 * math.pi / est["T"]
        if est["dominant"] is None or not abs(abs(est["dominant"]) - self.solution.omega) <= tol:
            return [f"dominant {est['dominant']} is not +-omega = {self.solution.omega:.6f} within {tol:.3g}"]
        return []


class ManifoldScan:
    """``dist_to_manifold`` on seeded perturbed solitary states, then ``solve --omega-range``."""

    name = "manifold_scan"
    why = ("no time stepping: solitary Newton solves, seminorms, metric and phase fit "
           "dominate, so a stepper change must leave it unchanged")
    main_kind = "dist_to_manifold"
    work_name = "branch_points_per_s"
    OMEGAS = np.linspace(0.1, 0.8, 15)

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        half, n_states, self.omega_range = (10, 3, "0:0.9:0.05") if tiny else (50, 100, "0:0.95:0.001")
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "model.ini"
        self.config.write_text(README_MODEL)
        self.model = kconfig.parse_config(self.config).model
        self.grid = kg.build_grid(self.model, -half, half, 0.02)
        rng = np.random.default_rng(seed)
        zero = kg.FieldState(np.zeros(self.grid.count, complex), np.zeros(self.grid.count, complex), 0.0)
        self.states, self.zero_dist = [], []
        for _ in range(n_states):
            wave = kg.solve_profile(self.model, float(rng.uniform(0.15, 0.75)), [0.7, 0.7])
            state = kg.perturbed_solitary_state(self.model, self.grid, wave, float(rng.uniform(0.02, 0.2)),
                                                int(rng.integers(1, 2**31)))
            self.states.append(state)
            self.zero_dist.append(kg.metric_dist(self.model, self.grid, state, zero, R_MAX))
        a, b, step = (float(v) for v in self.omega_range.split(":"))
        self.branch_points = int(math.floor((b - a) / step + 1e-12)) + 1
        # a quarter of the states per pass, so that a run times ~20 branch solves
        self.per_pass = max(n_states // 4, 1)
        self.next_state = 0

    def run_pass(self, ops):
        first = self.next_state
        self.next_state = (first + self.per_pass) % len(self.states)
        batch = slice(first, first + self.per_pass)
        for state, bound in zip(self.states[batch], self.zero_dist[batch]):
            ops.api("dist_to_manifold",
                    lambda s=state: kg.dist_to_manifold(self.model, self.grid, s, self.OMEGAS, R_MAX),
                    lambda result, b=bound: self.check_distance(result, b))
        out = self.dir / "branch"
        ops.cli("solve", ["solve", "--config", str(self.config), "--omega-range", self.omega_range,
                          "--out", str(out)], self.check_branch, work=self.branch_points)

    def check_distance(self, result, zero_dist):
        # the zero wave is always a candidate, so its distance bounds the result
        if not 0.0 <= result.dist <= zero_dist * (1.0 + 1e-12):
            return [f"distance {result.dist!r} outside [0, {zero_dist!r}]"]
        if not (math.isnan(result.best_omega) or self.OMEGAS[0] <= result.best_omega <= self.OMEGAS[-1]):
            return [f"best omega {result.best_omega!r} outside the scanned range"]
        return []

    def check_branch(self, _):
        summary = _read_json(self.dir / "branch" / "branch_summary.json")
        (residual,) = _read_columns(self.dir / "branch" / "branch.csv", ("residual_max",))
        problems = []
        if summary["failed_at"] is not None or summary["solved"] != self.branch_points:
            problems.append(f"branch solved {summary['solved']} of {self.branch_points} points, "
                            f"failed at {summary['failed_at']}")
        if len(residual) != summary["solved"] or not np.all(residual <= BRANCH_RESIDUAL_TOL):
            problems.append(f"branch residual max {np.max(residual, initial=0.0):.3e} "
                            f"> {BRANCH_RESIDUAL_TOL:g} or row count {len(residual)} wrong")
        return problems


WORKLOADS = {w.name: w for w in (Attraction, WideGapRestart, ManifoldScan)}
