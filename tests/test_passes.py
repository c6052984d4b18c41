import ctypes
import gc
import math
import os
import subprocess

import numpy as np
import pytest

from kgpoint import _passes
from kgpoint.cli import main
from kgpoint.model import ModelSpec, OscillatorSpec

CONFIG = """
[model]
mass = 1.0
positions = 0.0
coefficients_1 = 0 -2 1

[grid]
x_min = -2
x_max = 2
dx_target = 0.05

[run]
T = 0.2
dt = 0.02

[initial_data]
kind = zero
"""


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty cache directory and no loaded library; the library loads afresh after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _passes.library.cache_clear()
    yield tmp_path / "cache" / "kgpoint"
    _passes.library.cache_clear()


BROKEN_COMMANDS = {
    "compile-error": lambda command: command + ["--no-such-option"],
    "no-compiler": lambda command: ["kgpoint-no-such-compiler"] + command[1:],
}


@pytest.fixture(params=sorted(BROKEN_COMMANDS))
def broken_compiler(request, monkeypatch):
    command = BROKEN_COMMANDS[request.param](_passes._compile_command())
    monkeypatch.setattr(_passes, "_compile_command", lambda: command)


@pytest.fixture
def compiler_calls(monkeypatch):
    calls, run = [], subprocess.run

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    return calls


def test_a_failed_build_raises_one_line_oserror_and_leaves_nothing(cold_cache, broken_compiler):
    with pytest.raises(OSError, match="^cannot build the compiled passes: ") as err:
        _passes.library()
    assert "\n" not in str(err.value)
    assert os.listdir(cold_cache) == []  # no library, and no partial one


def _tone(tmp_path):
    """A stored trace of 200 samples, which a spectrum reads before it writes."""
    path = tmp_path / "tone.csv"
    t = [0.05 * k for k in range(200)]
    path.write_text("t,psi1_re,psi1_im\n" + "".join(f"{a!r},{math.cos(a)!r},{math.sin(a)!r}\n" for a in t))
    return path


COMMANDS = {  # each writes a CSV through the compiled library
    "simulate": lambda tmp_path: ["simulate", "--config", str(tmp_path / "run.ini")],
    "counterexample": lambda tmp_path: ["counterexample", "--kind", "wide_gap", "--simulate", "--T", "0.5",
                                        "--half-width", "6", "--dx-target", "0.05"],
    "spectrum": lambda tmp_path: ["spectrum", "--trace", str(_tone(tmp_path)), "--windows", "0:8"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_failed_build_is_one_file_error_line_before_any_output(cold_cache, broken_compiler, tmp_path, capsys,
                                                                 command):
    (tmp_path / "run.ini").write_text(CONFIG)
    out = tmp_path / "out"
    assert main([*COMMANDS[command](tmp_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("file error: cannot build the compiled passes: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--omega", "0.5"], ["--omega-range", "0:0.95:0.01"]], ids=["omega", "omega-range"])
def test_a_failed_build_fails_a_solve_with_one_file_error_line(cold_cache, broken_compiler, tmp_path, capsys, flags):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("file error: cannot build the compiled passes: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_a_warm_cache_loads_without_compiling(cold_cache, compiler_calls):
    _passes.library()
    assert len(compiler_calls) == 1
    built = os.listdir(cold_cache)
    assert len(built) == 1 and built[0].startswith("passes-") and built[0].endswith(".so")
    _passes.library.cache_clear()
    _passes.library()
    assert len(compiler_calls) == 1 and os.listdir(cold_cache) == built


LAYOUTS = {"kgp_field": _passes._Field, "kgp_model": _passes._Model, "kgp_observer": _passes._Observer,
           "kgp_metric": _passes._Metric, "kgp_wave": _passes._Wave, "kgp_pow10": _passes._Pow10,
           "kgp_limits": _passes._Limits, "kgp_branch": _passes._Branch, "kgp_scan": _passes._Scan,
           "kgp_nearest": _passes._Nearest}


def test_the_ctypes_declarations_mirror_the_c_structs(tmp_path):
    # a field out of order or of another width reads the wrong memory: a probe built from the library's source
    # with its compile command reports sizeof and each field's offsetof and sizeof, named as ctypes names them
    terms, expected = [], []
    for name, declaration in LAYOUTS.items():
        terms.append(f"sizeof(struct {name})")
        expected.append(ctypes.sizeof(declaration))
        for field, _ in declaration._fields_:
            terms += [f"offsetof(struct {name}, {field})", f"sizeof(((struct {name} *)0)->{field})"]
            expected += [getattr(declaration, field).offset, getattr(declaration, field).size]
    probe = tmp_path / "probe.c"
    probe.write_text(f'#include "{_passes.SOURCE}"\nconst long long kgp_layout[] = {{{", ".join(terms)}}};\n')
    built = subprocess.run([*_passes._compile_command(), "-o", str(tmp_path / "probe.so"), str(probe), *_passes._LIBS],
                           capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    layout = (ctypes.c_longlong * len(terms)).in_dll(ctypes.CDLL(str(tmp_path / "probe.so")), "kgp_layout")
    assert list(zip(terms, layout)) == list(zip(terms, expected))


def _buffers(count):
    return [np.zeros(count, complex) for _ in range(3)]


ONE = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -1.0, 1.0)),))
TWO = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -1.0, 1.0)), OscillatorSpec(0.5, (0.0, 1.0))))


@pytest.mark.parametrize("model, nodes, message", [
    (ONE, (0,), "must lie in 1 ... 5"), (ONE, (6,), "must lie in 1 ... 5"), (ONE, (-1,), "must lie in 1 ... 5"),
    (TWO, (2, 7), "must lie in 1 ... 5"), (TWO, (3,), "1 oscillator nodes but 2 oscillators"),
], ids=["first-node", "last-node", "negative", "past-the-end", "unpaired"])
def test_bind_refuses_a_site_outside_the_grid_or_an_empty_slope(model, nodes, message):
    # the kernel reads and writes the node of each of the model's oscillators, with no bounds check; a ModelSpec
    # cannot hold an empty slope list
    with pytest.raises(ValueError, match=message):
        _passes.bind(*_buffers(7), 0.1, 2.0, 1.0, model, nodes, 1.0)


def test_a_secant_start_that_overflows_stops_the_branch_as_not_finite():
    # two solved rows carried in, amplitudes -1.7e308 and 1.7e308: the secant start 1.7e308 + 1 (3.4e308) is inf
    cols = 2 * ONE.count + 3
    rows = (ctypes.c_double * (3 * cols))(0.1, 0.0, -1.7e308, 0.0, 0.0, 0.2, 0.0, 1.7e308, 0.0, 0.0)
    block = _passes._Branch(_passes.model_block(ONE), _passes.limits(100, 1e-11, 1e-9), 0.3, 0.1,
                            ctypes.addressof(rows), 2, 0.0, 0.0)
    assert _passes.library().kgp_branch(ctypes.byref(block), 0, 1) == _passes.NOT_FINITE
    assert block.omega == 0.3 and block.solved == 2 and rows[:2 * cols] == [0.1, 0.0, -1.7e308, 0.0, 0.0, 0.2, 0.0,
                                                                               1.7e308, 0.0, 0.0]


def test_a_branch_block_is_at_most_its_buffer():
    march = _passes.branch(ONE, 0.0, 0.1, [0.7 + 0j], _passes.limits(100, 1e-11, 1e-9))
    with pytest.raises(ValueError, match="a block of 257 frequencies"):
        march(_passes.BRANCH_ROWS + 1)


def test_bind_refuses_fewer_than_three_nodes():
    with pytest.raises(ValueError, match="at least 3 nodes"):
        _passes.bind(*_buffers(2), 0.1, 2.0, 1.0, ONE, (1,), 1.0)


def test_the_bound_call_keeps_its_arrays_alive():
    # bind makes the site array it passes and holds the model's block; only the call holds them, and packing
    # another model in between neither frees nor replaces the block the call was bound to
    from kgpoint.simulator import FieldState, build_grid, step

    model = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -2.0, 1.0)), OscillatorSpec(0.5, (0.1, -1.0, 0.0, 0.5))))
    grid = build_grid(model, -1.0, 1.5, 0.05)
    psi = np.exp(-grid.x**2) * np.exp(0.3j)
    psi[[0, -1]] = 0.0
    state = FieldState(psi, 0.5j * psi, 0.0)
    expected = step(model, grid, state, 0.02)
    dx = grid.dx
    psi, pi, kick = np.array(state.psi), np.array(state.pi), np.zeros(grid.count, complex)
    run = _passes.bind(psi, pi, kick, 0.02, 2.0 + dx**2, 0.01 / dx**2, ModelSpec(1.0, model.oscillators),
                       list(grid.oscillator_nodes), 0.01 / dx)
    other = ModelSpec(1.0, (OscillatorSpec(0.0, (5.0, 3.0, -7.0)), OscillatorSpec(0.5, (1.0, 9.0))))
    _passes.model_block(other)
    gc.collect()
    litter = [np.full(n, 10**6, dtype=dtype) for n in (2, 5) for dtype in (np.intp, np.intc, float) for _ in range(50)]
    run(0, 1)
    assert len(litter) == 300
    assert np.array_equal(psi.view(np.int64), expected.psi.view(np.int64))
    assert np.array_equal(pi.view(np.int64), expected.pi.view(np.int64))


def _series(rows, windows=0, traced=0):
    return np.zeros((4 + windows, rows)), np.zeros((2, rows, traced), complex)


@pytest.mark.parametrize("window", [(0, 8), (-1, 3), (5, 4), (7, 8)], ids=["past-the-end", "negative", "reversed",
                                                                        "beyond"])
def test_the_form_binders_refuse_a_window_outside_the_nodes(window):
    # the form reads every node of each window, with no bounds check
    psi, pi, _ = _buffers(7)
    with pytest.raises(ValueError, match="must lie within the 7 nodes"):
        _passes.observer(psi, pi, 1.0, 0.1, ONE, (3,), [window], *_series(1, windows=1, traced=1))
    with pytest.raises(ValueError, match="must lie within the 7 nodes"):
        _passes.Metric(psi, pi, 1.0, 0.1, [(0, 7), window])


def test_the_form_binders_refuse_arrays_of_unequal_length():
    psi, pi = np.zeros(7, complex), np.zeros(6, complex)
    message = "psi and pi as contiguous 1-d complex arrays of one length"
    for bind in (lambda: _passes.observer(psi, pi, 1.0, 0.1, ONE, (3,), [], *_series(1, traced=1)),
                 lambda: _passes.Metric(psi, pi, 1.0, 0.1, [(0, 6)]), lambda: _passes.Wave(psi, pi),
                 lambda: _passes.Wave(psi, np.zeros(7)), lambda: _passes.Wave(psi, np.zeros(14, complex)[::2])):
        with pytest.raises(ValueError, match=message):
            bind()
    metric = _passes.Metric(psi, psi, 1.0, 0.1, [(0, 7)])
    with pytest.raises(ValueError, match="a wave on 6 nodes, the metric's window has 7"):
        metric.dist(_passes.Wave(pi, pi))
    # the series: a column per observable and window, a trace per oscillator node, the same rows in both
    series, traces = _series(3, windows=1, traced=1)
    for blocks in ((series[:4], traces), (series, traces[:, :2]), (series, traces[:, :, :0]),
                   (series, traces.real.copy()), (series[:, ::2], traces[:, ::2])):
        with pytest.raises(ValueError, match="the series needs a writable contiguous"):
            _passes.observer(psi, psi, 1.0, 0.1, ONE, (3,), [(0, 7)], *blocks)


def test_the_observer_binder_refuses_a_node_outside_the_state():
    psi, pi, _ = _buffers(7)
    with pytest.raises(ValueError, match=r"must lie in 0 ... 6"):
        _passes.observer(psi, pi, 1.0, 0.1, ONE, (7,), [], *_series(1, traced=1))
    with pytest.raises(ValueError, match="1 oscillator nodes but 2 oscillators"):
        _passes.observer(psi, pi, 1.0, 0.1, TWO, (3,), [], *_series(1, traced=1))


def test_alternating_models_each_step_sample_and_solve_on_their_own_coefficients():
    # the block cache keeps only the model last packed: two models on one grid, every call switching between
    # them, each step, energy and solve equal to its own model's reference, bit for bit
    from test_simulator import _same_bits, reference_kdk, trapezoid_functionals
    from test_solitary import _bits, reference_solve_profile

    from kgpoint.simulator import FieldState, build_grid, hamiltonian, step
    from kgpoint.solitary import solve_profile

    models = (ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -2.0, 1.0)), OscillatorSpec(0.2, (0.0, -2.0, 1.0)))),
              ModelSpec(1.0, (OscillatorSpec(0.0, (0.1, -3.0, 0.0, 1.5)), OscillatorSpec(0.2, (0.0, -1.0, 2.0)))))
    grid = build_grid(models[0], -3.0, 3.0, 0.02)  # the grid depends on the positions alone
    psi = 0.8 * np.exp(-grid.x**2) * np.exp(0.3j)
    psi[[0, -1]] = 0.0
    state = FieldState(psi, 0.4j * psi, 0.0)
    references = [(reference_kdk(model, grid, state, 0.009, 1), trapezoid_functionals(model, grid, state)[0],
                   _bits(reference_solve_profile(model, 0.4, [0.7, 0.7]))) for model in models]
    (kdk_a, energy_a, wave_a), (kdk_b, energy_b, wave_b) = references
    assert not _same_bits(kdk_a[1], kdk_b[1]) and energy_a != energy_b and wave_a != wave_b  # they differ in each
    for _ in range(2):
        for model, (kdk, energy, wave) in zip(models, references):
            stepped = step(model, grid, state, 0.009)
            assert _same_bits(stepped.psi, kdk[0]) and _same_bits(stepped.pi, kdk[1])
        for model, (kdk, energy, wave) in zip(models, references):
            assert hamiltonian(model, grid, state) == energy
        for model, (kdk, energy, wave) in zip(models, references):
            assert _bits(solve_profile(model, 0.4, [0.7, 0.7])) == wave


def test_a_model_is_packed_once_for_its_steps_samples_and_solves(monkeypatch):
    # one model object's evolve with samples, its ten energy norms and its branch share one block
    from kgpoint.simulator import build_grid, energy_norm, evolve, perturbed_solitary_state
    from kgpoint.solitary import continue_branch, solve_profile

    packed, pack = [], _passes._pack

    def counted(model):
        packed.append(model)
        return pack(model)

    monkeypatch.setattr(_passes, "_pack", counted)
    model = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -2.0, 1.0)), OscillatorSpec(0.2, (0.0, -2.0, 1.0))))
    grid = build_grid(model, -4.0, 4.0, 0.02)
    state = perturbed_solitary_state(model, grid, solve_profile(model, 0.4, [0.7, 0.7]), 0.1, seed=1)
    evolve(model, grid, state, 100 * 0.009, 0.009, observe_every=10, seminorm_radii=(1.0,))
    for _ in range(10):
        energy_norm(model, grid, state)
    continue_branch(model, 0.3, 0.5, 0.05, [0.7, 0.7])
    assert packed == [model]
