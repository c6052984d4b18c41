import json
import math
from pathlib import Path

import numpy as np
import pytest

from kgpoint.cli import main
from kgpoint.io import read_state_csv, read_trace_csv, write_csv

BASE_MODEL = """
[model]
mass = 1.0
positions = 0.0 0.2
coefficients_1 = 0 -2 1
coefficients_2 = 0 -2 1
"""

SINGLE_MODEL = """
[model]
mass = 1.0
positions = 0.0
coefficients_1 = 0 -2 1
"""

RUN_SECTIONS = """
[grid]
x_min = -8
x_max = 8
dx_target = 0.05

[run]
T = 1.0
dt = 0.02
observe_every = 5
seminorm_radii = 1 2
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_close_pair_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_MODEL)
    assert main(["check", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["a3"] is True
    assert report["lower_bounds"]["A"] == [-1.0, -1.0]


def test_check_wide_pair_exits_two(tmp_path, capsys):
    text = BASE_MODEL.replace("0.0 0.2", f"0.0 {math.pi}")
    cfg = write_config(tmp_path, text)
    assert main(["check", "--config", cfg]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["a3"] is False


def test_check_unbounded_potential_exits_two(tmp_path, capsys):
    text = "[model]\nmass = 1.0\npositions = 0.0\ncoefficients_1 = 0 2 -1\n"
    cfg = write_config(tmp_path, text)
    assert main(["check", "--config", cfg]) == 2
    report = json.loads(capsys.readouterr().out)
    assert "error" in report["lower_bounds"]


QUARTIC_WELL = """
[model]
mass = 1.0
positions = 0.0
coefficients_1 = 0 0 -2 1 1e-4

[grid]
x_min = -20
x_max = 20
dx_target = 0.02

[run]
T = 2
dt = 0.009
observe_every = 5

[initial_data]
kind = solitary
omega = 0.866
"""


def test_badly_scaled_well_floor_bounds_its_solitary_wave(tmp_path, capsys):
    # the well of u = -2 s^2 + s^3 + 1e-4 s^4 at s = 4/3 sets the floor; the exact wave stays below the bound
    cfg = write_config(tmp_path, QUARTIC_WELL)
    assert main(["check", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["lower_bounds"]["A"][0] <= -1.18
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["bound_checked_samples"] == 46
    assert summary["bound_violations"] == 0
    assert summary["energy_norm_initial"] < summary["energy_norm_bound"]


@pytest.mark.parametrize("line", ["mass = nan", "positions = inf", "coefficients_1 = 0 nan 1"])
def test_check_non_finite_model_data_exits_one(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    text = "\n".join(line if row.startswith(key + " ") else row for row in SINGLE_MODEL.splitlines())
    assert main(["check", "--config", write_config(tmp_path, text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1


def test_check_malformed_config_exits_one(tmp_path):
    cfg = write_config(tmp_path, "[model]\nmass = not_a_number\n")
    assert main(["check", "--config", cfg]) == 1
    assert main(["check", "--config", str(tmp_path / "missing.ini")]) == 1


def test_solve_single_omega(tmp_path, capsys):
    cfg = write_config(tmp_path, SINGLE_MODEL)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--omega", "0", "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["amplitudes"][0][0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)
    assert doc["residual_max"] <= 1e-11
    saved = json.loads((out / "wave.json").read_text())
    assert saved == doc


def test_solve_branch_monotone_kappa(tmp_path, capsys):
    cfg = write_config(tmp_path, SINGLE_MODEL)
    out = tmp_path / "out"
    code = main(["solve", "--config", cfg, "--omega-range", "0:0.8:0.1", "--out", str(out)])
    assert code == 0
    lines = (out / "branch.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    kap = [float(row.split(",")[header.index("kappa")]) for row in lines[1:]]
    assert all(a >= b for a, b in zip(kap, kap[1:]))


def test_solve_no_convergence_exit_three(tmp_path):
    cfg = write_config(tmp_path, SINGLE_MODEL)
    code = main(["solve", "--config", cfg, "--omega", "0.3", "--guess", "1e150",
                 "--out", str(tmp_path / "out")])
    assert code == 3


def test_solve_branch_failure_reports_last_good(tmp_path, capsys):
    cfg = write_config(tmp_path, SINGLE_MODEL)
    out = tmp_path / "out"
    code = main(["solve", "--config", cfg, "--omega-range", "0:0.5:0.1",
                 "--guess", "1e150", "--out", str(out)])
    assert code == 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["failed_at"] == 0.0
    assert summary["solved"] == 0
    assert (out / "branch.csv").exists()


def test_simulate_solitary_and_determinism(tmp_path, capsys):
    text = SINGLE_MODEL + RUN_SECTIONS + "\n[initial_data]\nkind = solitary\nomega = 0.5\n"
    cfg = write_config(tmp_path, text)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_energy_drift"] <= 1e-6
    assert summary["bound_violations"] == 0
    assert summary["bound_checked_samples"] == 11  # 50 steps observed every 5
    assert summary["seed"] is None  # only perturbed solitary data draws from a seed
    assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "observers.csv").read_bytes() == (out_b / "observers.csv").read_bytes()
    assert (out_a / "final_state.csv").read_bytes() == (out_b / "final_state.csv").read_bytes()


def test_simulate_zero_initial_data(tmp_path):
    text = SINGLE_MODEL + RUN_SECTIONS + "\n[initial_data]\nkind = zero\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    times, trace = read_trace_csv(out / "observers.csv")
    assert np.all(trace == 0.0)
    _, psi, pi = read_state_csv(out / "final_state.csv")
    assert np.all(psi == 0.0) and np.all(pi == 0.0)


def test_simulate_seed_sweep(tmp_path, capsys):
    text = (
        SINGLE_MODEL
        + RUN_SECTIONS
        + "\n[initial_data]\nkind = perturbed_solitary\nomega = 0.5\nnoise_amplitude = 0.1\nseed = 1\n"
    )
    cfg = write_config(tmp_path, text)
    out = tmp_path / "sweep"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seeds", "3,4", "--parallel", "2"]) == 0
    assert (out / "seed_3" / "observers.csv").exists()
    assert (out / "seed_4" / "observers.csv").exists()
    assert json.loads(capsys.readouterr().out)["4"]["seed"] == 4
    a = (out / "seed_3" / "observers.csv").read_bytes()
    b = (out / "seed_4" / "observers.csv").read_bytes()
    assert a != b
    # the serial loop writes the same bytes as the worker pool
    serial = tmp_path / "serial"
    assert main(["simulate", "--config", cfg, "--out", str(serial), "--seeds", "3,4", "--parallel", "1"]) == 0
    for name in ("seed_3/observers.csv", "seed_4/final_state.csv", "seed_4/summary.json"):
        assert (serial / name).read_bytes() == (out / name).read_bytes()


def test_simulate_seed_defaults_to_the_config_seed(tmp_path, capsys):
    text = (
        SINGLE_MODEL
        + RUN_SECTIONS
        + "\n[initial_data]\nkind = perturbed_solitary\nomega = 0.5\nnoise_amplitude = 0.1\nseed = 6\n"
    )
    cfg = write_config(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "config")]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "flag"), "--seed", "6"]) == 0
    for name in ("observers.csv", "final_state.csv", "summary.json"):
        assert (tmp_path / "config" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()
    assert json.loads((tmp_path / "config" / "summary.json").read_text())["seed"] == 6


def test_simulate_zero_data_ignores_unknown_initial_data_keys(tmp_path):
    text = SINGLE_MODEL + RUN_SECTIONS + "\n[initial_data]\nkind = zero\nnote = hello\nomega = abc\n"
    cfg = write_config(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("key", ["seed = abc", "noise_amplitude = lots"])
@pytest.mark.parametrize("kind, code", [("solitary", 0), ("perturbed_solitary", 1)])
def test_only_perturbed_data_converts_its_seed_and_noise_keys(tmp_path, capsys, key, kind, code):
    text = SINGLE_MODEL + RUN_SECTIONS + f"\n[initial_data]\nkind = {kind}\nomega = 0.5\n{key}\n"
    assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("config error:") and err.count("\n") == 1
    else:
        assert err == ""


@pytest.mark.filterwarnings("default::UserWarning")  # the filter a command-line user runs under
def test_cli_prints_the_clip_warning_as_one_line(tmp_path, capsys):
    text = SINGLE_MODEL + RUN_SECTIONS.replace("seminorm_radii = 1 2", "seminorm_radii = 1 2 60")
    cfg = write_config(tmp_path, text + "\n[initial_data]\nkind = zero\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("warning: light-cone margin")  # R = 60 reaches past both walls
    assert lines[1:] == ["warning: seminorm window [-60.0, 60.0] exceeds the grid; clipping"]


@pytest.mark.parametrize("argv", [
    ["solve", "--omega", "0.5", "--omega-range", "0:0.2:0.1"],
    ["solve"],
    ["simulate", "--seed", "5", "--seeds", "1,2"],
], ids=["solve both", "solve neither", "simulate both"])
def test_exclusive_flags_exit_one(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, SINGLE_MODEL + RUN_SECTIONS + "\n[initial_data]\nkind = zero\n")
    out = tmp_path / "out"
    assert main(argv[:1] + ["--config", cfg, "--out", str(out)] + argv[1:]) == 1
    assert not out.exists()


@pytest.mark.parametrize("source", ["trace", "state"])
def test_missing_input_file_is_one_line(tmp_path, capsys, source):
    missing = tmp_path / "nope.csv"
    if source == "trace":
        argv = ["spectrum", "--trace", str(missing), "--windows", "0:1"]
    else:
        text = SINGLE_MODEL + RUN_SECTIONS + f"\n[initial_data]\nkind = file\npath = {missing}\n"
        argv = ["simulate", "--config", write_config(tmp_path, text)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "nope.csv" in err


def test_simulate_file_round_trip(tmp_path):
    text = SINGLE_MODEL + RUN_SECTIONS + "\n[initial_data]\nkind = solitary\nomega = 0.5\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "first"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    text2 = (
        SINGLE_MODEL
        + RUN_SECTIONS
        + f"\n[initial_data]\nkind = file\npath = {out / 'final_state.csv'}\n"
    )
    cfg2 = write_config(tmp_path, text2, name="exp2.ini")
    out2 = tmp_path / "second"
    assert main(["simulate", "--config", cfg2, "--out", str(out2)]) == 0
    x, psi, pi = read_state_csv(out / "final_state.csv")
    x2, psi2, pi2 = read_state_csv(out2 / "final_state.csv")
    assert len(x) == len(x2)


def test_simulate_rejects_state_file_with_nonzero_walls(tmp_path, capsys):
    # the walls are homogeneous Dirichlet: a state that is not 0 there is refused, not run
    from kgpoint import build_grid
    from kgpoint.model import ModelSpec, OscillatorSpec

    grid = build_grid(ModelSpec(1.0, (OscillatorSpec(0.0, (0, -2, 1)),)), -8.0, 8.0, 0.05)
    zero = np.zeros(grid.count)
    pi = zero.copy()
    pi[0], pi[-1] = 0.3, -0.2
    state = tmp_path / "state.csv"
    write_csv(state, ["x", "psi_re", "psi_im", "pi_re", "pi_im"], np.column_stack((grid.x, zero, zero, pi, zero)))
    cfg = write_config(tmp_path, SINGLE_MODEL + RUN_SECTIONS + f"\n[initial_data]\nkind = file\npath = {state}\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and "end node 0 " in err and err.count("\n") == 1


def test_simulate_counterexample_config(tmp_path):
    text = f"""
[grid]
x_min = -8
x_max = 11
dx_target = 0.05

[run]
T = 1.0
dt = 0.02
observe_every = 5

[initial_data]
kind = counterexample
family = wide_gap
l = {math.pi}
alpha = 2.0
beta = -1.0
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "cx"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    times, trace = read_trace_csv(out / "observers.csv")
    assert np.max(np.abs(trace)) > 0.1  # the fundamental tone is alive at X_1


@pytest.mark.parametrize("kind, missing", [
    ("solitary", "omega"), ("perturbed_solitary", "omega"), ("counterexample", "family"), ("file", "path"),
])
def test_simulate_incomplete_initial_data_exits_one(tmp_path, capsys, kind, missing):
    cfg = write_config(tmp_path, SINGLE_MODEL + RUN_SECTIONS + f"\n[initial_data]\nkind = {kind}\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(missing) in err and err.count("\n") == 1


def test_readme_config_parses(tmp_path):
    from kgpoint.config import parse_config

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.model.count == 2 and cfg.run.seminorm_radii == (1.0, 2.0, 5.0)
    assert cfg.initial.kind == "perturbed_solitary" and cfg.initial.noise_amplitude == 0.1


def test_spectrum_pure_tone(tmp_path, capsys):
    dt = 0.05
    t = np.arange(4000) * dt
    trace = np.exp(-1j * 0.5 * t)
    path = tmp_path / "trace.csv"
    write_csv(path, ["t", "psi1_re", "psi1_im"], zip(t, trace.real, trace.imag))
    out = tmp_path / "spec"
    code = main(["spectrum", "--trace", str(path), "--windows", "10:80,100:80", "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert len(summary) == 2
    for entry in summary:
        assert abs(entry["dominant"] - 0.5) <= 2 * math.pi / 80.0
    assert (out / "spectrum_0.csv").exists() and (out / "spectrum_1.csv").exists()


def test_spectrum_of_a_backward_run(tmp_path, capsys):
    # simulate with dt < 0 writes decreasing times; spectrum takes the samples in increasing time
    run = RUN_SECTIONS.replace("T = 1.0", "T = 12.0").replace("dt = 0.02", "dt = -0.02")
    cfg = write_config(tmp_path, SINGLE_MODEL + run + "\n[initial_data]\nkind = solitary\nomega = 0.5\n")
    out = tmp_path / "back"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    times, _ = read_trace_csv(out / "observers.csv")
    assert times[0] == 0.0 and times[-1] == pytest.approx(-12.0)
    capsys.readouterr()
    assert main(["spectrum", "--trace", str(out / "observers.csv"), "--windows=-11:10", "--out", str(out)]) == 0
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["t0"] == -11.0 and abs(entry["dominant"] - 0.5) <= 0.1 * 2 * math.pi / 10.0  # a tenth of a bin

    # the same samples written in increasing time give the same spectrum, bit for bit
    dt = 0.05
    t = -np.arange(4000) * dt
    trace = np.exp(-1j * 0.5 * t)
    for name, order in (("down", slice(None)), ("up", slice(None, None, -1))):
        write_csv(tmp_path / f"{name}.csv", ["t", "psi1_re", "psi1_im"],
                  zip(t[order], trace.real[order], trace.imag[order]))
        assert main(["spectrum", "--trace", str(tmp_path / f"{name}.csv"), "--windows=-150:80",
                     "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert (tmp_path / "down" / "spectrum_0.csv").read_bytes() == (tmp_path / "up" / "spectrum_0.csv").read_bytes()


def test_spectrum_two_tone_reports_both_peaks(tmp_path, capsys):
    dt = 0.05
    t = np.arange(4000) * dt
    trace = np.sin(0.5 * t) + 0.4 * np.sin(1.5 * t)
    path = tmp_path / "trace.csv"
    write_csv(path, ["t", "psi1_re", "psi1_im"], zip(t, trace, np.zeros_like(t)))
    out = tmp_path / "spec"
    assert main(["spectrum", "--trace", str(path), "--windows", "10:150", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "spectrum_0.csv").read_text().strip().splitlines()[1:]
    freqs = np.array([float(r.split(",")[0]) for r in lines])
    mags = np.array([float(r.split(",")[1]) for r in lines])
    for center in (0.5, 1.5, -0.5, -1.5):
        sel = np.abs(freqs - center) <= 0.1
        assert mags[sel].max() > 10 * np.median(mags)  # a genuine peak at each tone


def test_spectrum_short_window_exit_two(tmp_path):
    dt = 0.05
    t = np.arange(200) * dt
    path = tmp_path / "trace.csv"
    write_csv(path, ["t", "psi1_re", "psi1_im"], zip(t, np.cos(t), np.sin(t)))
    assert main(["spectrum", "--trace", str(path), "--windows", "0:1", "--out", str(tmp_path / "s")]) == 2


def test_counterexample_wide_gap(tmp_path, capsys):
    out = tmp_path / "wg"
    assert main(["counterexample", "--kind", "wide_gap", "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verification"]["max_jump_residual"] <= 1e-10
    assert (out / "params.json").exists() and (out / "verification.json").exists()


def test_counterexample_linear_deg(tmp_path, capsys):
    out = tmp_path / "ld"
    assert main(["counterexample", "--kind", "linear_deg", "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verification"]["max_jump_residual"] <= 1e-10
    for value in doc["verification"]["equation_residuals"].values():
        assert abs(value) <= 1e-12


def test_counterexample_gap_too_small_exit_two(tmp_path, capsys):
    code = main(["counterexample", "--kind", "wide_gap", "--L", "1.0", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "1.1107" in err  # the gap bound pi / 2^(3/2)


def test_counterexample_simulate_handoff(tmp_path):
    out = tmp_path / "wg_sim"
    code = main([
        "counterexample", "--kind", "wide_gap", "--out", str(out), "--simulate",
        "--T", "2.0", "--half-width", "6.0", "--dx-target", "0.05",
    ])
    assert code == 0
    times, trace = read_trace_csv(out / "observers.csv")
    assert len(times) > 10
    assert np.max(np.abs(trace)) > 0.1


@pytest.mark.parametrize("half, warns", [(6.0, True), (30.0, False)])
def test_counterexample_reports_what_the_walls_cut(tmp_path, capsys, half, warns):
    out = tmp_path / "wg"
    argv = ["counterexample", "--kind", "wide_gap", "--simulate", "--T", "2.0", "--half-width", repr(half),
            "--dx-target", "0.05", "--out", str(out)]
    assert main(argv) == 0
    err = capsys.readouterr().err
    clip = json.loads((out / "verification.json").read_text())["initial_wall_clip"]
    assert json.loads((out / "summary.json").read_text())["initial_wall_clip"] == clip
    if warns:  # pi is about 1.6e-3 at both walls, against a peak of 0.317
        assert 4e-3 <= clip <= 6e-3
        assert err.startswith("warning: the walls cut 0.00") and "above 1e-06" in err and err.count("\n") == 1
    else:
        assert clip <= 1e-10 and err == ""


def _counterexample_config(tmp_path, family, half, T, dx_target):
    """simulate config equivalent to counterexample --kind family --simulate with these flags."""
    from kgpoint import build_grid
    from kgpoint.cli import _counterexample_solution

    sol = _counterexample_solution(family, {})
    grid = build_grid(sol.to_model(), -half, sol.L + half, dx_target)
    text = (f"[grid]\nx_min = {-half!r}\nx_max = {sol.L + half!r}\ndx_target = {dx_target!r}\n"
            f"[run]\nT = {T!r}\ndt = {0.45 * grid.dx!r}\nobserve_every = 5\n"
            f"[initial_data]\nkind = counterexample\nfamily = {family}\n")
    return write_config(tmp_path, text, name=f"{family}.ini")


def test_counterexample_simulate_matches_simulate(tmp_path, capsys):
    flags = ["--T", "2.0", "--half-width", "6.0", "--dx-target", "0.05"]
    out_cx, out_sim = tmp_path / "cx", tmp_path / "sim"
    assert main(["counterexample", "--kind", "wide_gap", "--simulate", "--out", str(out_cx)] + flags) == 0
    cfg = _counterexample_config(tmp_path, "wide_gap", 6.0, 2.0, 0.05)
    assert main(["simulate", "--config", cfg, "--out", str(out_sim)]) == 0
    capsys.readouterr()
    for name in ("observers.csv", "final_state.csv", "summary.json"):
        assert (out_cx / name).read_bytes() == (out_sim / name).read_bytes(), name
    summary = json.loads((out_cx / "summary.json").read_text())
    assert summary["bound_violations"] == 0 and summary["bound_checked_samples"] > 0
    assert summary["max_charge_drift"] <= 1e-12
    assert summary["seed"] is None


@pytest.mark.parametrize("command", ["counterexample", "simulate"])
def test_linear_deg_run_reports_null_bound(tmp_path, capsys, command):
    out = tmp_path / "ld"
    if command == "counterexample":
        argv = ["counterexample", "--kind", "linear_deg", "--simulate",
                "--T", "1.0", "--half-width", "4.0", "--dx-target", "0.05"]
    else:
        argv = ["simulate", "--config", _counterexample_config(tmp_path, "linear_deg", 4.0, 1.0, 0.05)]
    # the linear oscillator's potential has no floor, so no a priori bound exists
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["energy_norm_bound"] is None and summary["bound_violations"] is None
    assert summary["bound_checked_samples"] == 0
    assert summary["max_charge_drift"] <= 1e-12


def test_linear_deg_default_family_blows_up_in_the_simulator(tmp_path, capsys):
    # at its defaults gamma = 3.22 > 2m, so the linear oscillator alone carries
    # a bound state growing at rate sqrt(gamma^2/4 - m^2) = 1.26
    argv = ["counterexample", "--kind", "linear_deg", "--simulate",
            "--T", "2", "--half-width", "6", "--dx-target", "0.05", "--out", str(tmp_path / "ld")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and " t=" in err and err.count("\n") == 1


def test_model_config_round_trip(tmp_path):
    from kgpoint.config import model_to_ini, parse_config
    from kgpoint.model import ModelSpec, OscillatorSpec

    model = ModelSpec(
        1.25,
        (OscillatorSpec(-0.3, (0.1, -2.0, 1.0 / 3.0)), OscillatorSpec(math.pi, (0.0, 0.0, 0.0, 0.5))),
    )
    path = tmp_path / "model.ini"
    path.write_text(model_to_ini(model))
    assert parse_config(path).model == model


def test_csv_json_round_trip_precision(tmp_path):
    values = [1.0 / 3.0, math.pi, 1e-17, 123456.789012345678]
    path = tmp_path / "t.csv"
    write_csv(path, ["t", "psi1_re", "psi1_im"], [(v, v, v) for v in values])
    times, trace = read_trace_csv(path)
    assert list(times) == values
    assert list(trace.real) == values


def test_counterexample_rejects_parameter_the_family_does_not_take(tmp_path, capsys):
    out = tmp_path / "wg"
    assert main(["counterexample", "--kind", "wide_gap", "--omega", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "'omega'" in err and "mass, l, alpha, beta" in err
    assert not out.exists()


def test_counterexample_linear_deg_takes_omega(tmp_path, capsys):
    out = tmp_path / "ld"
    assert main(["counterexample", "--kind", "linear_deg", "--omega", "0.25", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["omega"] == 0.25


@pytest.mark.parametrize("extra, key", [("omega = 0.3\n", "omega"), ("gamma = 1.0\n", "gamma")])
def test_counterexample_config_rejects_unknown_parameter(tmp_path, capsys, extra, key):
    text = RUN_SECTIONS + f"\n[initial_data]\nkind = counterexample\nfamily = wide_gap\n{extra}"
    assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(key) in err and err.count("\n") == 1


def test_light_cone_margin_of_readme_and_wide_gap_runs(tmp_path):
    from kgpoint import build_grid
    from kgpoint.cli import _counterexample_solution, _light_cone_margin
    from kgpoint.config import RunConfig, parse_config

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    cfg = parse_config(write_config(tmp_path, readme.split("```ini\n", 1)[1].split("```", 1)[0]))
    grid = build_grid(cfg.model, cfg.grid.x_min, cfg.grid.x_max, cfg.grid.dx_target)
    # right wall: (50 - 0.2) + (50 - 5) - 90
    assert _light_cone_margin(cfg.model, grid, cfg.run) == pytest.approx(4.8, abs=1e-9)
    sol = _counterexample_solution("wide_gap", {})
    model = sol.to_model()
    grid = build_grid(model, -30.0, sol.L + 30.0, 0.02)  # counterexample --simulate defaults
    margin = _light_cone_margin(model, grid, RunConfig(60.0, 0.45 * grid.dx, 5))
    assert 0.0 < margin < 0.02


def test_simulate_reports_light_cone_margin(tmp_path, capsys):
    cfg = write_config(tmp_path, SINGLE_MODEL + RUN_SECTIONS + "\n[initial_data]\nkind = solitary\nomega = 0.5\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "ok" / "summary.json").read_text())
    assert summary["light_cone_margin"] == pytest.approx((8 - 0) + (8 - 2) - 1.0)  # [-8, 8], R = 2, T = 1


def test_short_domain_warns_of_reflection_and_still_runs(tmp_path, capsys):
    text = SINGLE_MODEL + RUN_SECTIONS.replace("T = 1.0", "T = 20.0") + "\n[initial_data]\nkind = zero\n"
    assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: light-cone margin -6 < 0") and err.count("\n") == 1
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["light_cone_margin"] == pytest.approx(-6.0)
