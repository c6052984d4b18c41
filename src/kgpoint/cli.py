"""Command-line front end: reproducible experiments from config files.

Commands

    kgpoint check          --config PATH
    kgpoint solve          --config PATH --omega W | --omega-range A:B:STEP [--out DIR]
    kgpoint simulate       --config PATH [--out DIR] [--seed N | --seeds N,N,...] [--parallel K]
    kgpoint spectrum       --trace CSV --windows t0:T[,t0:T...] [--out DIR] [--taper hann|none]
    kgpoint counterexample --kind wide_gap|linear_deg [parameter flags] [--out DIR] [--simulate]

simulate and counterexample --simulate run one runner, which writes
observers.csv, final_state.csv and summary.json.  A model with no a priori
energy bound still runs; its summary carries null bound keys.

Exit codes: 0 success, 1 usage, parse or unreadable-file failure, 2 domain
or assumption failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import counterexamples as cx
from . import io as kio
from .config import ConfigError, ExperimentConfig, GridConfig, InitialDataConfig, RunConfig, parse_config, parse_windows
from .model import UnboundedPotentialError, check_assumptions, lower_bound_constants
from .simulator import (
    FieldState,
    _check_run,
    _energy_norm_bound,
    _sample_arrays,
    build_grid,
    energy_norm,
    evolve,
    perturbed_solitary_state,
    solitary_state,
)
from .solitary import ConvergedToZero, NoConvergence, _newton_starts, continue_branch, profile_eval, solve_profile
from .spectral import time_spectrum

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3

# the walls may cut this much of an exact wave's peak from the initial data before a run warns: a thousandth of
# the 1e-3-level trace errors of the discretization at dx = 0.02
WALL_CLIP_WARN = 1e-6


def _print_json(obj):
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_check(args) -> int:
    cfg = parse_config(args.config)
    if cfg.model is None:
        raise ConfigError("check requires a [model] section")
    report = check_assumptions(cfg.model)
    out = asdict(report)
    try:
        out["lower_bounds"] = asdict(lower_bound_constants(cfg.model))
        bounded = True
    except UnboundedPotentialError as err:
        out["lower_bounds"] = {"error": str(err)}
        bounded = False
    _print_json(out)
    return EXIT_OK if (report.all_hold and bounded) else EXIT_DOMAIN


def cmd_solve(args) -> int:
    cfg = parse_config(args.config)
    if cfg.model is None:
        raise ConfigError("solve requires a [model] section")
    out_dir = Path(args.out)
    guess = _newton_starts(cfg.model)[0]
    try:
        if args.guess:
            guess = [complex(float(v), 0.0) for v in args.guess.split(",")]
        if args.omega_range is not None:
            a, b, step = (float(v) for v in args.omega_range.split(":"))
    except ValueError as err:
        raise ConfigError(f"bad solve arguments: {err}") from err

    if args.omega_range is not None:
        try:
            waves = continue_branch(cfg.model, a, b, step, guess)
            failed_at, collapsed_at = None, waves.collapsed_at
        except NoConvergence as err:
            waves, failed_at, collapsed_at = err.waves, err.omega, None
        header = ["omega", "kappa"]
        for j in range(cfg.model.count):
            header += [f"C{j + 1}_re", f"C{j + 1}_im"]
        header.append("residual_max")
        # the branch's own float64 rows, which write_csv formats in the compiled library
        kio.write_csv(out_dir / "branch.csv", header, waves.rows)
        summary = {
            "solved": len(waves),
            "last_good_omega": waves[-1].omega if waves else None,
            "failed_at": failed_at,
            "collapsed_at": collapsed_at,
        }
        _print_json(summary)
        kio.write_json(out_dir / "branch_summary.json", summary)
        if collapsed_at is not None:  # a branch cut short by the zero wave, told apart from one that ran its range
            print(f"warning: the branch collapsed to the zero wave at omega={collapsed_at!r} after "
                  f"{len(waves)} solved points", file=sys.stderr)
        return EXIT_NUMERICAL if failed_at is not None else EXIT_OK

    try:
        wave = solve_profile(cfg.model, args.omega, guess)
        zero = False
    except ConvergedToZero as err:
        wave, zero = err.wave, True
    except NoConvergence as err:
        print(f"no convergence at omega={err.omega}", file=sys.stderr)
        return EXIT_NUMERICAL
    doc = wave.to_json_dict()
    doc["zero_branch"] = zero
    doc["residual_max"] = wave.residual_max
    _print_json(doc)
    kio.write_json(out_dir / "wave.json", doc)
    return EXIT_OK


# each family's constructor and its parameters in call order, with defaults
_COUNTEREXAMPLES = {
    "wide_gap": (cx.wide_gap_construct, {"mass": 1.0, "l": math.pi, "alpha": 2.0, "beta": -1.0}),
    "linear_deg": (cx.linear_deg_construct,
                   {"mass": 1.0, "l": 1.0, "omega": 0.3, "alpha": 0.0, "beta": 10.0}),
}


def _counterexample_solution(family: str, params: dict):
    """The exact wave of a family; parameters missing from params take the family defaults.

    A parameter the family does not take is a ConfigError, not silently dropped.
    """
    if family not in _COUNTEREXAMPLES:
        raise ConfigError(f"unknown counterexample family {family!r}")
    construct, defaults = _COUNTEREXAMPLES[family]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigError(f"counterexample family {family!r} takes no parameter {unknown[0]!r}; "
                          f"its parameters are {', '.join(defaults)}")
    return construct(*(params.get(name, value) for name, value in defaults.items()))


def build_initial_state(cfg: ExperimentConfig, grid, model, seed,
                        solution) -> tuple[FieldState, float | None]:
    """The configured initial data on grid; solution is a counterexample's exact wave, which brings the model.

    Returns the state and, for counterexample, solitary and perturbed
    solitary data, what the walls cut from the exact wave as cx.wall_clip
    defines it (None for other data).  seed is the perturbation seed, used as given.
    """
    initial = cfg.initial
    if initial is None or initial.kind == "zero":
        z = np.zeros(grid.count, dtype=complex)
        return FieldState(z, z.copy(), 0.0), None
    if initial.kind == "counterexample":
        return cx.init_from(solution, grid), cx.wall_clip(*solution.eval(grid.x, 0.0))
    if initial.kind in ("solitary", "perturbed_solitary"):
        wave = solve_profile(model, initial.omega, _newton_starts(model)[0])
        phi = profile_eval(model, wave, grid.x)
        clip = cx.wall_clip(phi, -1j * wave.omega * phi)
        if initial.kind == "solitary":
            return solitary_state(model, grid, wave), clip
        return perturbed_solitary_state(model, grid, wave, initial.noise_amplitude, seed), clip
    if initial.kind == "file":
        x, psi, pi = kio.read_state_csv(initial.path)
        if len(psi) != grid.count:
            raise ConfigError(f"state file has {len(psi)} nodes, grid has {grid.count}")
        offset = float(np.max(np.abs(x - grid.x)))
        if not offset <= 1e-9 * grid.dx:  # a nan too
            raise ConfigError(f"state file's x column is {offset:.3g} off the grid's nodes (dx = {grid.dx:g})")
        return FieldState(psi, pi, 0.0), None
    raise ConfigError(f"unknown initial data kind {initial.kind!r}")


def _light_cone_margin(model, grid, run: RunConfig) -> float:
    """Time to spare before radiation can reflect off a wall back into the observed region.

    Radiation moves at unit speed at most.  Leaving the outermost oscillator
    X_1 it reaches x_min and returns to a, the left end of the hull of the
    oscillators and [-R, R] for the largest seminorm radius R, after
    (X_1 - x_min) + (a - x_min); likewise on the right.  The margin is the
    smaller of the two minus T.
    """
    first, last = model.positions[0], model.positions[-1]
    a, b = first, last
    if run.seminorm_radii:
        r = max(run.seminorm_radii)
        a, b = min(a, -r), max(b, r)
    left = (first - grid.x_min) + (a - grid.x_min)
    right = (grid.x_max - last) + (grid.x_max - b)
    return min(left, right) - run.T


def _record_run(run: RunConfig, out_dir: Path, model, grid, state: FieldState, seed,
                wall_clip: float | None) -> dict:
    """Evolve state, write observers.csv, final_state.csv and summary.json; return the summary.

    The a priori bound is a diagnostic here: a model whose potentials admit
    no bound gets null bound keys and no checked samples.  A negative
    light-cone margin is reported with a warning on stderr before the run,
    and a wall_clip (what the walls cut from a counterexample's or a
    solitary wave) above WALL_CLIP_WARN with one after it.
    """
    margin = _light_cone_margin(model, grid, run)
    if margin < 0:
        print(f"warning: light-cone margin {margin:.6g} < 0: radiation reflected off a wall "
              f"reaches the observed region before T = {run.T:g}", file=sys.stderr)
    series, final = evolve(
        model, grid, state, run.T, run.dt,
        observe_every=run.observe_every, seminorm_radii=run.seminorm_radii,
    )
    kio.series_to_csv(series, out_dir / "observers.csv")
    kio.state_to_csv(grid, final, out_dir / "final_state.csv")
    # sample 0 is the initial state, and the last sample is the final state when steps is a multiple of
    # observe_every; the bound is checked at every sample, and at the final state when it is not one
    h0 = float(series.energy[0])
    try:
        bound = _energy_norm_bound(model, h0)
    except UnboundedPotentialError:
        bound = None
    scale = max(abs(h0), 1.0)
    steps = _check_run(model, grid, run.dt, run.T, run.observe_every)
    checked = list(series.energy_norm) + ([energy_norm(model, grid, final)] if steps % run.observe_every else [])
    summary = {
        "grid": {"dx": grid.dx, "count": grid.count, "x_min": grid.x_min, "x_max": grid.x_max},
        "steps": steps,
        "seed": seed,
        "max_energy_drift": float(np.max(np.abs(series.energy - h0))) / scale,
        "max_charge_drift": float(np.max(np.abs(series.charge - series.charge[0]))) / scale,
        "energy_norm_bound": bound,
        "energy_norm_initial": checked[0],
        "energy_norm_final": checked[-1],
        "bound_violations": None if bound is None else int(sum(n > bound for n in checked)),
        "bound_checked_samples": 0 if bound is None else len(checked),
        "light_cone_margin": margin,
        "initial_wall_clip": wall_clip,
    }
    kio.write_json(out_dir / "summary.json", summary)
    if wall_clip is not None and wall_clip > WALL_CLIP_WARN:  # with the summary that records it
        print(f"warning: the walls cut {wall_clip:.3g} of the exact wave's peak from the initial data "
              f"(above {WALL_CLIP_WARN:g}); widen the domain", file=sys.stderr)
    return summary


def _prepare_run(cfg: ExperimentConfig, seed=None) -> tuple:
    """(model, grid, initial state, seed, wall clip) of a configured run; a run evolve would refuse fails first.

    A run too large to hold is refused here too, before anything is printed:
    its sample arrays are allocated once, untouched, and dropped.  So is a run
    whose compiled library, which steps it and writes its CSVs, cannot be built.
    """
    if cfg.grid is None or cfg.run is None:
        raise ConfigError("simulate requires [grid] and [run] sections")
    initial, solution = cfg.initial, None
    if initial is not None and initial.kind == "counterexample":  # the exact wave brings its model
        solution = _counterexample_solution(initial.family, initial.params)
    model = cfg.model if solution is None else solution.to_model()
    if model is None:
        raise ConfigError("simulate requires a [model] section or counterexample initial data")
    grid = build_grid(model, cfg.grid.x_min, cfg.grid.x_max, cfg.grid.dx_target)
    steps = _check_run(model, grid, cfg.run.dt, cfg.run.T, cfg.run.observe_every, cfg.run.seminorm_radii)
    _sample_arrays(steps, cfg.run.observe_every, cfg.run.seminorm_radii, model.count)
    from . import _passes  # here, so that importing the command line loads no library

    _passes.library()
    # only perturbed solitary data draws from a seed: the --seed flag, else the config's
    if initial is None or initial.kind != "perturbed_solitary":
        seed = None
    elif seed is None:
        seed = initial.seed
    state, wall_clip = build_initial_state(cfg, grid, model, seed, solution)
    return model, grid, state, seed, wall_clip


def _run_simulation(cfg: ExperimentConfig, out_dir: Path, seed=None) -> dict:
    return _record_run(cfg.run, out_dir, *_prepare_run(cfg, seed))


def _warning_line(message, category, filename, lineno, file=None, line=None):
    """Show a warning as one line on stderr: its location in the code means nothing to a command-line user."""
    print(f"warning: {message}", file=sys.stderr)


def _simulate_worker(config_path: str, out_dir: str, seed):
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        return _run_simulation(parse_config(config_path), Path(out_dir), seed=seed)


def cmd_simulate(args) -> int:
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be at least 1, got {args.parallel}")
    cfg = parse_config(args.config)
    out_dir = Path(args.out)
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError as err:
            raise ConfigError(f"bad --seeds {args.seeds!r}: {err}") from err
        if len(set(seeds)) < len(seeds):  # two jobs would write one seed_N directory at once
            raise ConfigError(f"--seeds repeats a seed: {args.seeds}")
        jobs = [(args.config, str(out_dir / f"seed_{s}"), s) for s in seeds]
        if args.parallel > 1:
            # here alone: the pool's multiprocessing imports logging and subprocess, which no other command needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=args.parallel) as pool:
                summaries = list(pool.map(_simulate_worker, *zip(*jobs)))
        else:
            summaries = [_simulate_worker(*job) for job in jobs]
        _print_json({str(s): summ for s, summ in zip(seeds, summaries)})
        return EXIT_OK
    summary = _run_simulation(cfg, out_dir, seed=args.seed)
    _print_json(summary)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    windows = parse_windows(args.windows)
    times, trace = kio.read_trace_csv(args.trace, re_col=args.re_col, im_col=args.im_col)
    if len(times) < 2:
        raise ConfigError("trace is too short")
    if times[1] < times[0]:  # a backward run: take the samples in increasing time
        times, trace = times[::-1], trace[::-1]
    sample_dt = float(times[1] - times[0])
    # the stored times of a uniform trace, each rounded once or twice, space alike to 2 ulps of the largest |t|
    spread = float(np.max(np.abs(np.diff(times) - sample_dt)))
    if not (sample_dt > 0 and spread <= 4 * np.spacing(np.max(np.abs(times)))):
        raise ValueError(f"trace times are not uniformly spaced: a spacing differs from the first, "
                         f"{sample_dt:.17g}, by {spread:.3g}")
    out_dir = Path(args.out)
    # every window is sliced and checked before the first file is written
    estimates = [time_spectrum(trace, sample_dt, t0, T, taper=args.taper, trace_t0=float(times[0]))
                 for t0, T in windows]
    summary = []
    for i, est in enumerate(estimates):
        kio.spectrum_to_csv(est, out_dir / f"spectrum_{i}.csv")
        summary.append(
            {
                "t0": est.t0,
                "T": est.T,
                "dominant": None if not est.has_dominant else est.dominant,
                "band_mass_ratio": est.band_mass_ratio,
            }
        )
    kio.write_json(out_dir / "spectrum_summary.json", summary)
    _print_json(summary)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    out_dir = Path(args.out)
    flags = {"mass": args.mass, "l": args.L, "alpha": args.alpha, "beta": args.beta, "omega": args.omega}
    params = {k: v for k, v in flags.items() if v is not None}
    sol = _counterexample_solution(args.kind, params)
    verification = asdict(cx.verify_exact(sol))
    if args.simulate:  # the experiment the flags describe (dt = 0.45 dx on its grid), built before any output
        grid = GridConfig(-args.half_width, sol.L + args.half_width, args.dx_target)
        dx = build_grid(sol.to_model(), grid.x_min, grid.x_max, grid.dx_target).dx
        run = RunConfig(args.T, 0.45 * dx, args.observe_every)
        prepared = _prepare_run(ExperimentConfig(None, grid, run, InitialDataConfig(
            "counterexample", family=args.kind, params=params)))
    params_doc = asdict(sol)
    kio.write_json(out_dir / "params.json", params_doc)
    kio.write_json(out_dir / "verification.json", verification)
    _print_json({"params": params_doc, "verification": verification})

    if args.simulate:
        _record_run(run, out_dir, *prepared)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgpoint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check model assumptions")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="solve solitary-wave profiles")
    p.add_argument("--config", required=True)
    omega = p.add_mutually_exclusive_group(required=True)
    omega.add_argument("--omega", type=float)
    omega.add_argument("--omega-range", dest="omega_range", metavar="A:B:STEP",
                       help="continue the branch from A to B in steps of STEP; a negative A needs the = form, "
                            "as in --omega-range=-0.5:0.5:0.25")
    p.add_argument("--guess")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="evolve a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    seed = p.add_mutually_exclusive_group()
    seed.add_argument("--seed", type=int)
    seed.add_argument("--seeds", help="comma-separated seed sweep")
    p.add_argument("--parallel", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrum", help="windowed spectra of a stored trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--windows", required=True)
    p.add_argument("--taper", default="hann", choices=("hann", "none"))
    p.add_argument("--re-col", dest="re_col", default="psi1_re")
    p.add_argument("--im-col", dest="im_col", default="psi1_im")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("counterexample", help="construct and verify a two-frequency wave")
    p.add_argument("--kind", required=True, choices=("wide_gap", "linear_deg"))
    p.add_argument("--mass", type=float)
    p.add_argument("--L", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--out", default="out")
    p.add_argument("--simulate", action="store_true", help="also evolve from the exact initial data")
    p.add_argument("--T", type=float, default=60.0)
    p.add_argument("--half-width", dest="half_width", type=float, default=30.0)
    p.add_argument("--dx-target", dest="dx_target", type=float, default=0.02)
    p.add_argument("--observe-every", dest="observe_every", type=int, default=5)
    p.set_defaults(func=cmd_counterexample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"file error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, MemoryError) as err:  # numpy refuses an array too large to hold with one or the other
        print(f"domain error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except (NoConvergence, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
