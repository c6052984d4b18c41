import json
import math
import os
import platform
import subprocess
import sys
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

# alpha(s) = 1 - 4 s: marching down from the band edge, the branch collapses to zero near omega = sqrt(3)/2
COLLAPSE_MODEL = """
[model]
mass = 1.0
positions = 0.0
coefficients_1 = 0 -0.5 1
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


PERTURBED_DATA = """
[initial_data]
kind = perturbed_solitary
omega = 0.4
noise_amplitude = 0.1
seed = 3
"""


# what the walls at +-8 cut from the omega = 0.5 wave of SINGLE_MODEL, exp(-8 kappa), kappa = sqrt(0.75)
SOLITARY_CLIP_WARNING = ("warning: the walls cut 0.00098 of the exact wave's peak from the initial data "
                         "(above 1e-06); widen the domain\n")


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


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("text, reason", [
    ("[model]\nmass 1\n[[x\n", "2 malformed lines, first line 2: 'mass 1\\n'"),
    ("[model]\nmass 1\n", "1 malformed line, first line 2: 'mass 1\\n'"),
    ("mass = 1\n[model]\n", "line 1: 'mass = 1\\n' comes before any [section]"),
], ids=["two bad lines", "one bad line", "no section"])
def test_unparsable_config_is_one_config_error_line(tmp_path, capsys, command, text, reason):
    # configparser's own messages give each malformed line a line of its own
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, *(["--out", str(out)] if command == "simulate" else [])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: cannot parse {cfg}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("line, value, reason", [
    ("T = 1.0", "T = 9%", "could not convert string to float: '9%'"),
    ("seed = 3", "seed = %(x)s", "invalid literal for int() with base 10: '%(x)s'"),
], ids=["percent", "interpolation"])
def test_percent_in_a_config_value_is_one_config_error_line(tmp_path, capsys, command, line, value, reason):
    # values are read as they stand: configparser's interpolation would raise its own errors on a %
    text = BASE_MODEL + RUN_SECTIONS + PERTURBED_DATA
    assert text.count(line + "\n") == 1
    cfg = write_config(tmp_path, text.replace(line + "\n", value + "\n"))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, *(["--out", str(out)] if command == "simulate" else [])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: bad config {cfg}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "solve", "simulate"])
def test_unreadable_config_is_one_file_error_line(tmp_path, capsys, command):
    out = tmp_path / "out"
    flags = {"check": [], "solve": ["--omega", "0.4", "--out", str(out)], "simulate": ["--out", str(out)]}[command]
    for config in (tmp_path, tmp_path / "missing.ini"):  # a directory reads as no file, not as an empty one
        assert main([command, "--config", str(config), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("file error: ") and captured.err.count("\n") == 1
        assert repr(str(config)) in captured.err
    assert not out.exists()


def test_solve_single_omega(tmp_path, capsys):
    cfg = write_config(tmp_path, SINGLE_MODEL)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--omega", "0", "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["amplitudes"][0][0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)
    assert doc["residual_max"] <= 1e-11
    saved = json.loads((out / "wave.json").read_text())
    assert saved == doc


def test_solve_reports_the_residual_of_every_stored_wave(tmp_path, capsys):
    from kgpoint.config import parse_config
    from kgpoint.solitary import SolitaryWave, amplitude_residual

    cfg = write_config(tmp_path, BASE_MODEL)
    model = parse_config(cfg).model
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--omega-range", "0:0.95:0.05", "--out", str(out)]) == 0
    lines = (out / "branch.csv").read_text().strip().splitlines()
    assert len(lines) == 21
    for line in lines[1:]:
        omega, kap, c1r, c1i, c2r, c2i, residual = (float(v) for v in line.split(","))
        wave = SolitaryWave(omega, kap, (complex(c1r, c1i), complex(c2r, c2i)))
        assert residual == float(np.max(np.abs(amplitude_residual(model, wave))))
    for argv in (["--omega", "0.5"], ["--omega", "1.0"], ["--omega", "0.3", "--guess", "0,0"]):  # zero waves too
        assert main(["solve", "--config", cfg, "--out", str(out)] + argv) == 0
        doc = json.loads((out / "wave.json").read_text())
        wave = SolitaryWave.from_json_dict(doc)
        assert doc["residual_max"] == float(np.max(np.abs(amplitude_residual(model, wave))))


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


@pytest.mark.parametrize("argv, reason", [
    (["--omega", "nan"], "|omega|=nan exceeds the mass 1.0"),
    (["--omega-range", "0:0.5:nan"], "step must be positive"),
    (["--omega-range", "0:0.5:inf"], "step inf is not finite"),
], ids=["omega", "step", "infinite-step"])
def test_solve_nan_frequency_or_step_exits_two(tmp_path, capsys, argv, reason):
    cfg = write_config(tmp_path, SINGLE_MODEL)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")] + argv) == 2
    assert capsys.readouterr().err == f"domain error: {reason}\n"


@pytest.mark.parametrize("span", ["0:0.5:1e-320", "0.4:0.5:1e-20"], ids=["subnormal", "repeats"])
def test_solve_step_below_the_float_spacing_exits_two(tmp_path, capsys, span):
    cfg = write_config(tmp_path, SINGLE_MODEL)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--omega-range", span, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error: step ") and "4 ulps" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--omega", "0.4", "--guess", "nan,nan"],
    ["--omega", "0.4", "--guess", "0.7,inf"],
    ["--omega-range", "0:0.5:0.1", "--guess", "nan,0.7"],
    ["--omega", "1", "--guess", "nan,nan"],
], ids=["nan", "inf", "branch", "band-edge"])
def test_solve_non_finite_guess_exits_two(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, BASE_MODEL)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")] + argv) == 2
    assert capsys.readouterr().err == "domain error: guess must be finite\n"


@pytest.mark.parametrize("omega", ["0.5", "1", "-1"])
def test_solve_guess_of_another_length_exits_two_at_the_band_edge_too(tmp_path, capsys, omega):
    cfg = write_config(tmp_path, BASE_MODEL)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, f"--omega={omega}", "--guess", "1", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "domain error: guess must have length 2\n")
    assert not out.exists()


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


@pytest.mark.parametrize("model, flags, solved, collapsed_at", [
    (BASE_MODEL, ["--omega-range", "0:0.95:0.01", "--guess", "0,0"], 0, 0.0),
    (COLLAPSE_MODEL, ["--omega-range", "0.95:0.5:0.01", "--guess", "0.2"], 9, 0.95 - 0.01 * 9),
    (COLLAPSE_MODEL, ["--omega-range", "0.95:0.9:0.01", "--guess", "0.2"], 6, None),
], ids=["first-point", "midway", "none"])
def test_a_collapsed_branch_is_named_and_warned(tmp_path, capsys, model, flags, solved, collapsed_at):
    # a branch cut short by the zero wave exits 0, as before, but says where it collapsed
    cfg = write_config(tmp_path, model)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, *flags, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary == json.loads((out / "branch_summary.json").read_text())
    assert summary["solved"] == solved and summary["collapsed_at"] == collapsed_at and summary["failed_at"] is None
    assert len((out / "branch.csv").read_text().splitlines()) == solved + 1
    if collapsed_at is None:
        assert captured.err == ""
    else:
        assert captured.err == (f"warning: the branch collapsed to the zero wave at omega={collapsed_at!r} "
                                f"after {solved} solved points\n")


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


@pytest.mark.parametrize("argv, reason", [
    (["--seeds", "1,x"], "bad --seeds '1,x'"),
    (["--seeds", "1,1", "--parallel", "2"], "--seeds repeats a seed: 1,1"),
    (["--seeds", "2,1,02"], "--seeds repeats a seed: 2,1,02"),
    (["--parallel", "0"], "--parallel must be at least 1"),
    (["--seeds", "1,2", "--parallel", "-1"], "--parallel must be at least 1"),
], ids=["malformed seed", "repeated seed in parallel", "repeated seed in series", "no workers",
        "negative workers"])
def test_simulate_rejects_bad_seed_flags(tmp_path, capsys, argv, reason):
    text = SINGLE_MODEL + RUN_SECTIONS + "\n[initial_data]\nkind = perturbed_solitary\nomega = 0.5\n"
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)] + argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {reason}") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


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
        assert err == SOLITARY_CLIP_WARNING


@pytest.mark.parametrize("noise", ["-0.1", "nan", "inf"])
def test_simulate_refuses_a_negative_or_non_finite_noise_amplitude(tmp_path, capsys, noise):
    initial = f"\n[initial_data]\nkind = perturbed_solitary\nomega = 0.5\nnoise_amplitude = {noise}\n"
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, SINGLE_MODEL + RUN_SECTIONS + initial),
                 "--out", str(out)]) == 2
    message = f"noise_amplitude must be finite and at least 0, got {float(noise)}"
    assert capsys.readouterr() == ("", f"domain error: {message}\n")
    assert not out.exists()


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


def test_simulate_rejects_state_file_from_another_grid(tmp_path, capsys):
    # same node count, shifted domain: the wave would sit off the oscillators
    text = SINGLE_MODEL + RUN_SECTIONS + "\n[initial_data]\nkind = solitary\nomega = 0.5\n"
    first = tmp_path / "first"
    assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(first)]) == 0
    shifted = RUN_SECTIONS.replace("x_min = -8", "x_min = -7").replace("x_max = 8", "x_max = 9")
    text2 = SINGLE_MODEL + shifted + f"\n[initial_data]\nkind = file\npath = {first / 'final_state.csv'}\n"
    out = tmp_path / "second"
    capsys.readouterr()
    assert main(["simulate", "--config", write_config(tmp_path, text2, "exp2.ini"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: state file's x column is 1 off") and err.count("\n") == 1
    assert not out.exists()


def _assert_refused_before_output(capsys, out):
    """Exit 2 already asserted: one line on stderr, nothing on stdout, no file in out."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("line, value", [
    ("T = 1.0", "T = nan"), ("T = 1.0", "T = inf"), ("dt = 0.02", "dt = nan"), ("dt = 0.02", "dt = 0"),
    ("dt = 0.02", "dt = 0.05"), ("dt = 0.02", "dt = 0.04999"), ("observe_every = 5", "observe_every = 0"),
    ("x_min = -8", "x_min = -inf"), ("x_max = 8", "x_max = inf"), ("dx_target = 0.05", "dx_target = inf"),
    ("dx_target = 0.05", "dx_target = nan"),
], ids=["T-nan", "T-inf", "dt-nan", "dt-zero", "dt-cfl", "dt-massive-cfl", "observe-every-0", "x_min-inf",
        "x_max-inf", "dx_target-inf", "dx_target-nan"])
def test_simulate_refuses_a_non_finite_duration_or_step_before_writing(tmp_path, capsys, line, value):
    cfg = write_config(tmp_path, SINGLE_MODEL + RUN_SECTIONS.replace(line, value) + "\n[initial_data]\nkind = zero\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    # T = inf is refused before the light-cone margin, -inf, is reported
    _assert_refused_before_output(capsys, out)


@pytest.mark.parametrize("radii", ["1 -2", "0", "nan 1"], ids=["negative", "zero", "nan"])
def test_simulate_refuses_a_seminorm_radius_before_solving_the_initial_data(tmp_path, capsys, monkeypatch, radii):
    from kgpoint import cli

    solves, solve = [], cli.solve_profile
    monkeypatch.setattr(cli, "solve_profile", lambda *args: solves.append(args) or solve(*args))
    out = tmp_path / "out"
    for line, code in ((f"seminorm_radii = {radii}", 2), ("seminorm_radii = 1 2", 0)):
        text = SINGLE_MODEL + RUN_SECTIONS.replace("seminorm_radii = 1 2", line) + PERTURBED_DATA
        assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)]) == code
        if code:
            _assert_refused_before_output(capsys, out)
            assert solves == []
    assert len(solves) == 1  # the run with good radii solves its initial data


# 1.4 EiB of node positions, 280 PiB of observer samples: beyond any address space, so numpy refuses them at
# once without touching memory
@pytest.mark.parametrize("line, value, warnings", [
    ("x_max = 8", "x_max = 1e16", []),  # the grid is built before anything is reported
    ("T = 1.0", "T = 1e15", []),  # and so are the sample arrays, before the light-cone margin's warning
], ids=["grid", "samples"])
def test_simulate_too_large_to_hold_is_a_domain_error(tmp_path, capsys, line, value, warnings):
    cfg = write_config(tmp_path, SINGLE_MODEL + RUN_SECTIONS.replace(line, value) + "\n[initial_data]\nkind = zero\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    *first, last = captured.err.splitlines()
    assert last.startswith("domain error: ") and "Traceback" not in captured.err
    assert len(first) == len(warnings) and all(f.startswith(w) for f, w in zip(first, warnings))
    assert not (out / "observers.csv").exists()


def test_simulate_rejects_a_model_beside_counterexample_data(tmp_path, capsys):
    text = BASE_MODEL + RUN_SECTIONS + "\n[initial_data]\nkind = counterexample\nfamily = wide_gap\n"
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [model]") and err.count("\n") == 1
    assert not out.exists()


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
    write_csv(path, ["t", "psi1_re", "psi1_im"], np.column_stack((t, trace.real, trace.imag)))
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
                  np.column_stack((t[order], trace.real[order], trace.imag[order])))
        assert main(["spectrum", "--trace", str(tmp_path / f"{name}.csv"), "--windows=-150:80",
                     "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert (tmp_path / "down" / "spectrum_0.csv").read_bytes() == (tmp_path / "up" / "spectrum_0.csv").read_bytes()


def test_spectrum_two_tone_reports_both_peaks(tmp_path, capsys):
    dt = 0.05
    t = np.arange(4000) * dt
    trace = np.sin(0.5 * t) + 0.4 * np.sin(1.5 * t)
    path = tmp_path / "trace.csv"
    write_csv(path, ["t", "psi1_re", "psi1_im"], np.column_stack((t, trace, np.zeros_like(t))))
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
    write_csv(path, ["t", "psi1_re", "psi1_im"], np.column_stack((t, np.cos(t), np.sin(t))))
    assert main(["spectrum", "--trace", str(path), "--windows", "0:1", "--out", str(tmp_path / "s")]) == 2


def test_spectrum_malformed_window_exits_one(tmp_path, capsys):
    out = tmp_path / "spec"
    for windows in ("x:3", "1:2:3", "5"):
        assert main(["spectrum", "--trace", str(tmp_path / "trace.csv"), "--windows", windows,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: window {windows!r} is not of the form t0:T\n"
    assert not out.exists()


def _spectrum_of(tmp_path, capsys, times, windows="50:20"):
    """spectrum's exit code and stderr on a unit tone sampled at times."""
    times = np.asarray(times)
    trace = np.exp(-1j * 0.366 * times)
    write_csv(tmp_path / "trace.csv", ["t", "psi1_re", "psi1_im"],
              np.column_stack([times, trace.real, trace.imag]))
    code = main(["spectrum", "--trace", str(tmp_path / "trace.csv"), f"--windows={windows}",
                 "--out", str(tmp_path / "spec")])
    return code, capsys.readouterr().err


def _observer_times(t0, dt, observe_every, T):
    """The sample times evolve writes, t0 + k dt at every observe_every-th step k."""
    return [t0 + k * dt for k in range(0, int(round(T / dt)) + 1, observe_every)]


@pytest.mark.parametrize("case", ["dropped samples", "one dropped sample", "restart join"])
def test_spectrum_rejects_non_uniform_trace(tmp_path, capsys, case):
    uniform = _observer_times(0.0, 0.009, 5, 120.0)
    if case == "dropped samples":  # every other sample of the first 500 is missing: 0.09, then 0.045 apart
        times = uniform[0:1000:2] + uniform[1000:]
    elif case == "one dropped sample":
        times = uniform[:1500] + uniform[1501:]
    else:  # two observer files run back to back: the second repeats the sample where the first ended
        times = _observer_times(0.0, 0.009, 5, 60.0) + _observer_times(60.0, 0.009, 5, 60.0)
    code, err = _spectrum_of(tmp_path, capsys, times)
    assert code == 2
    assert err.startswith("domain error: trace times are not uniformly spaced") and err.count("\n") == 1
    assert not (tmp_path / "spec").exists()


def test_spectrum_accepts_a_long_uniform_trace(tmp_path, capsys):
    # 222 223 samples to T = 1e4: the spacings differ by up to 1.7e-12, a unit in the last place of 1e4
    times = _observer_times(0.0, 0.009, 5, 1e4)
    assert np.ptp(np.diff(times)) > 0
    code, err = _spectrum_of(tmp_path, capsys, times, windows="9000:200")
    assert code == 0 and err == ""
    (entry,) = json.loads((tmp_path / "spec" / "spectrum_summary.json").read_text())
    assert abs(entry["dominant"] - 0.366) <= 0.1 * 2 * math.pi / 200.0


@pytest.mark.parametrize("windows", ["0:inf", "inf:10", "-inf:5", "nan:10", "1:nan", "1e308:10"])
def test_spectrum_refuses_a_window_that_is_not_a_finite_span(tmp_path, capsys, windows):
    code, err = _spectrum_of(tmp_path, capsys, _observer_times(0.0, 0.009, 5, 60.0), windows=windows)
    assert code == 2
    t0, T = (float(v) for v in windows.split(":"))
    assert err == f"domain error: window {t0}:{T} is not a finite span of the trace\n"
    assert not (tmp_path / "spec").exists()


def test_spectrum_checks_every_window_before_writing_any(tmp_path, capsys):
    # the first window is good: a spectrum that wrote as it went would leave spectrum_0.csv behind
    code, err = _spectrum_of(tmp_path, capsys, _observer_times(0.0, 0.009, 5, 60.0), windows="10:20,0:inf")
    assert code == 2
    assert err == "domain error: window 0.0:inf is not a finite span of the trace\n"
    assert not (tmp_path / "spec").exists() or not any((tmp_path / "spec").iterdir())


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


@pytest.mark.parametrize("flags", [["--T", "nan"], ["--T", "-1"], ["--T", "inf"], ["--observe-every", "0"],
                                   ["--half-width", "inf"]],
                         ids=["T-nan", "T-negative", "T-inf", "observe-every-0", "half-width-inf"])
def test_counterexample_simulate_refuses_a_run_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "wg"
    argv = ["counterexample", "--kind", "wide_gap", "--simulate", "--half-width", "6.0", "--dx-target", "0.05",
            "--out", str(out)]
    assert main(argv + flags) == 2
    _assert_refused_before_output(capsys, out)


@pytest.mark.parametrize("half, warns", [(6.0, True), (30.0, False)])
def test_counterexample_reports_what_the_walls_cut(tmp_path, capsys, half, warns):
    out = tmp_path / "wg"
    argv = ["counterexample", "--kind", "wide_gap", "--simulate", "--T", "2.0", "--half-width", repr(half),
            "--dx-target", "0.05", "--out", str(out)]
    assert main(argv) == 0
    err = capsys.readouterr().err
    clip = json.loads((out / "summary.json").read_text())["initial_wall_clip"]
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


# 50 steps end on their 11th sample (observe_every = 5); 33 steps end after their 7th
@pytest.mark.parametrize("dt, samples, final_evaluations", [(0.02, 11, 0), (0.03, 7, 1)],
                         ids=["final-sampled", "final-unsampled"])
def test_record_reads_the_energy_figures_from_the_observer_series(tmp_path, monkeypatch, dt, samples,
                                                                  final_evaluations):
    from kgpoint import cli, simulator
    from kgpoint.config import parse_config

    text = (BASE_MODEL + RUN_SECTIONS.replace("dt = 0.02", f"dt = {dt}")
            + "\n[initial_data]\nkind = perturbed_solitary\nomega = 0.4\nnoise_amplitude = 0.1\nseed = 3\n")
    cfg = parse_config(write_config(tmp_path, text))
    model, grid, state, seed, clip = cli._prepare_run(cfg)
    calls = []

    def counted(function):
        def wrapper(*args):
            calls.append(function.__name__)
            return function(*args)
        return wrapper

    monkeypatch.setattr(cli, "energy_norm", counted(simulator.energy_norm))
    monkeypatch.setattr(simulator, "hamiltonian", counted(simulator.hamiltonian))
    summary = cli._record_run(cfg.run, tmp_path / "out", model, grid, state, seed, clip)
    assert calls == ["energy_norm"] * final_evaluations  # no whole-grid evaluation outside evolve but this one
    monkeypatch.undo()
    x, psi, pi = read_state_csv(tmp_path / "out" / "final_state.csv")
    final = simulator.FieldState(psi, pi, 0.0)
    assert summary["energy_norm_bound"] == simulator.apriori_bound(model, grid, state)
    assert summary["energy_norm_initial"] == simulator.energy_norm(model, grid, state)
    assert summary["energy_norm_final"] == simulator.energy_norm(model, grid, final)
    assert summary["bound_checked_samples"] == samples + final_evaluations


def test_linear_deg_default_family_stays_finite_in_the_simulator(tmp_path, capsys):
    # at its defaults gamma = 1.50 < 2m, so the linear oscillator carries no bound state: the default run, to
    # T = 60, ends finite
    out = tmp_path / "ld"
    assert main(["counterexample", "--kind", "linear_deg", "--simulate", "--out", str(out)]) == 0
    assert "numerical failure" not in capsys.readouterr().err
    x, psi, pi = read_state_csv(out / "final_state.csv")
    assert np.isfinite(psi).all() and np.isfinite(pi).all()
    assert json.loads((out / "summary.json").read_text())["steps"] == 6667


@pytest.mark.parametrize("family", ["wide_gap", "linear_deg"])
def test_a_default_counterexample_run_prints_nothing_on_stderr(tmp_path, capsys, family):
    # each family's default half-width keeps the walls' cut under WALL_CLIP_WARN: linear_deg's 3 omega tail decays
    # at kappa3 = 0.436 only, and needs 35 where wide_gap needs 30
    out = tmp_path / family
    assert main(["counterexample", "--kind", family, "--simulate", "--T", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "summary.json").read_text())["initial_wall_clip"] <= 1e-6


def test_simulate_exits_3_when_a_node_force_overflows(tmp_path, capsys):
    # |psi| = 1e155 at the oscillator node: |psi|^2 overflows, the node force is nan, and the run fails in one line
    from kgpoint import build_grid
    from kgpoint.model import ModelSpec, OscillatorSpec

    grid = build_grid(ModelSpec(1.0, (OscillatorSpec(0.0, (0, -2, 1)),)), -8.0, 8.0, 0.05)
    psi, zero = np.zeros(grid.count), np.zeros(grid.count)
    psi[grid.oscillator_nodes[0]] = 1e155
    state = tmp_path / "state.csv"
    write_csv(state, ["x", "psi_re", "psi_im", "pi_re", "pi_im"], np.column_stack((grid.x, psi, zero, zero, zero)))
    cfg = write_config(tmp_path, SINGLE_MODEL + RUN_SECTIONS + f"\n[initial_data]\nkind = file\npath = {state}\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
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
    write_csv(path, ["t", "psi1_re", "psi1_im"], np.column_stack((values, values, values)))
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


@pytest.mark.parametrize("kind", ["solitary", "perturbed_solitary"])
def test_solitary_data_reports_what_the_walls_cut(tmp_path, capsys, kind):
    text = SINGLE_MODEL + RUN_SECTIONS + f"\n[initial_data]\nkind = {kind}\nomega = 0.5\nnoise_amplitude = 0.1\n"
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out), "--seed", "1"]) == 0
    # the wave peaks at the oscillator, x = 0, and decays as exp(-kappa |x|)
    clip = json.loads((out / "summary.json").read_text())["initial_wall_clip"]
    assert clip == pytest.approx(math.exp(-8.0 * math.sqrt(0.75)), rel=1e-12)
    assert capsys.readouterr().err == SOLITARY_CLIP_WARNING


def test_readme_attraction_config_cuts_nothing_from_its_wave(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0].replace("T = 90", "T = 0.09")
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "summary.json").read_text())["initial_wall_clip"] <= 1e-15


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
    assert capsys.readouterr().err == SOLITARY_CLIP_WARNING  # no light-cone warning
    summary = json.loads((tmp_path / "ok" / "summary.json").read_text())
    assert summary["light_cone_margin"] == pytest.approx((8 - 0) + (8 - 2) - 1.0)  # [-8, 8], R = 2, T = 1


def test_short_domain_warns_of_reflection_and_still_runs(tmp_path, capsys):
    text = SINGLE_MODEL + RUN_SECTIONS.replace("T = 1.0", "T = 20.0") + "\n[initial_data]\nkind = zero\n"
    assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: light-cone margin -6 < 0") and err.count("\n") == 1
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["light_cone_margin"] == pytest.approx(-6.0)


def _numpy_blas_is_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy whose show_config has no dicts mode
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS core types are x86-64's")
@pytest.mark.skipif(not _numpy_blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_outputs_do_not_depend_on_the_openblas_kernel(tmp_path):
    # the README run on [-10, 10] to T = 2: its initial noise is scaled by an energy norm and its observers are
    # energy forms, which once summed with np.vdot and so took the bits of whichever kernel OpenBLAS picked
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    for line, shrunk in (("x_min = -50", "x_min = -10"), ("x_max = 50", "x_max = 10"), ("T = 90", "T = 2")):
        assert text.count(line + "\n") == 1
        text = text.replace(line + "\n", shrunk + "\n")
    config = write_config(tmp_path, text)
    src = str(Path(__file__).parents[1] / "src")
    outputs = {}
    for core in (None, "NEHALEM", "PRESCOTT"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        if core:
            env["OPENBLAS_CORETYPE"] = core
        out = tmp_path / (core or "default")
        done = subprocess.run([sys.executable, "-m", "kgpoint", "simulate", "--config", config, "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs[core] = [(out / name).read_bytes() for name in ("final_state.csv", "observers.csv")]
    assert outputs["NEHALEM"] == outputs[None] and outputs["PRESCOTT"] == outputs[None]
