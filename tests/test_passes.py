import ast
import ctypes
import gc
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

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


def test_the_ctypes_declarations_mirror_the_c_structs(probe):
    # a field out of order or of another width reads the wrong memory: the probe, built from the library's sources
    # with its compile command, reports sizeof and each field's offsetof and sizeof of every struct kgp_* the sources
    # define, named as the structures read from them name them
    text = "".join(Path(path).read_text() for path in (*_passes.SOURCES, _passes.HEADER))
    assert sorted(probe.structs) == sorted(set(re.findall(r"\bstruct (kgp_\w+) \{", text))) != []
    expected = []
    for structure in probe.structs.values():
        expected.append(ctypes.sizeof(structure))
        for field, _ in structure._fields_:
            expected += [getattr(structure, field).offset, getattr(structure, field).size]
    assert probe.layout() == list(zip(probe.terms, expected))


def test_the_entries_are_declared_as_the_sources_define_them():
    lib = _passes.library()
    model, scan, nearest = (ctypes.POINTER(lib.structs[f"kgp_{name}"]) for name in ("model", "scan", "nearest"))
    size, double, pointer = ctypes.c_ssize_t, ctypes.c_double, ctypes.c_void_p
    # double ** and ptrdiff_t * are pointers to no struct; a const struct pointer is its structure's
    assert lib.entries["kgp_branch"] == ((model, double, double, size, pointer, pointer, pointer), ctypes.c_int)
    assert lib.entries["kgp_free"] == ((pointer,), None)  # void *, and a void return
    assert lib.entries["kgp_nearest"] == ((scan, pointer, pointer, nearest), ctypes.c_int)
    assert lib.entries["kgp_format_rows"] == ((pointer, size, size, ctypes.POINTER(lib.structs["kgp_pow10"]),
                                               pointer), size)
    assert lib.kgp_evolve.argtypes == (ctypes.POINTER(lib.structs["kgp_run"]), size)


READER_TEXT = """
/* struct kgp_commented { float x; }; */
struct kgp_pair { const double *p, *q; uint64_t hi, lo; int64_t e; struct kgp_pair *next; int n; };
static double kgp_hidden(float x) { return x; }
// void kgp_commented(float x) {}
int64_t kgp_first(const struct kgp_pair *pair,
                  struct other *o, void **out)
{
    return kgp_hidden(0.0f); /* a call is no definition: kgp_hidden(float) { */
}
double kgp_declared(float x);
uint64_t kgp_count(void) { return 0; }
"""


def test_the_reader_takes_every_declarator_drops_comments_and_skips_statics():
    structs = _passes.structures(READER_TEXT)
    pair = structs["kgp_pair"]
    assert list(structs) == ["kgp_pair"]
    assert [(name, kind.__name__) for name, kind in pair._fields_] == [
        ("p", "c_void_p"), ("q", "c_void_p"), ("hi", ctypes.c_uint64.__name__), ("lo", ctypes.c_uint64.__name__),
        ("e", ctypes.c_int64.__name__), ("next", "LP_kgp_pair"), ("n", "c_int")]
    assert pair._fields_[5][1]._type_ is pair
    assert _passes.entries(READER_TEXT, structs) == {
        "kgp_first": ((ctypes.POINTER(pair), ctypes.c_void_p, ctypes.c_void_p), ctypes.c_int64),
        "kgp_count": ((), ctypes.c_uint64)}


@pytest.mark.parametrize("text, owner, declaration", [
    ("struct kgp_s {\n    double dx;\n    float m2;\n};\n", "struct kgp_s", "float m2"),
    ("struct kgp_s {\n    struct kgp_t inner;\n};\nstruct kgp_t {\n    int n;\n};\n", "struct kgp_s",
     "struct kgp_t inner"),
    ("double kgp_f(double x[], ptrdiff_t n)\n{\n    return x[n];\n}\n", "kgp_f", "double x[]"),
    ("long kgp_h(int n)\n{\n    return n;\n}\n", "kgp_h", "long kgp_h"),
    ("unsigned long\nkgp_g(void)\n{\n    return 0;\n}\n", "kgp_g", "kgp_g"),  # its type on the line before
], ids=["float-field", "struct-by-value", "array-parameter", "long-return", "split-return"])
def test_a_c_type_with_no_ctypes_type_is_refused_in_one_line(text, owner, declaration):
    with pytest.raises(OSError) as err:
        _passes.entries(text, _passes.structures(text))
    assert str(err.value) == (f"cannot bind the compiled passes: {owner} declares '{declaration}', a C type with no "
                              f"ctypes type here")


@pytest.mark.skipif(shutil.which("nm") is None, reason="no nm to list the library's dynamic symbols")
def test_the_library_exports_its_entries_and_its_residual_count_alone():
    # what one source calls in another is hidden; the test-only parts are the probe's, not the library's
    listed = subprocess.run(["nm", "-D", "--defined-only", _passes.library()._name], capture_output=True, text=True,
                            check=True).stdout
    assert sorted(line.split()[-1] for line in listed.splitlines()) == sorted([*_passes.library().entries,
                                                                              "kgp_residuals"])


def test_every_entry_is_called_from_the_package():
    # an entry that only the tests call belongs in the probe: each entry's name is an attribute some module of
    # the package reads (the library's, as library().kgp_evolve or a bound entry's)
    package = os.path.dirname(_passes.__file__)
    read = set()
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                read |= {node.attr for node in ast.walk(ast.parse(fh.read())) if isinstance(node, ast.Attribute)}
    assert sorted(set(_passes.library().entries) - read) == []


def test_a_field_with_no_ctypes_type_is_one_file_error_line_before_a_build(cold_cache, compiler_calls, tmp_path,
                                                                           monkeypatch, capsys):
    for path in (*_passes.SOURCES, _passes.HEADER):
        text = Path(path).read_text()
        if path == _passes.HEADER:
            assert text.count("    double dx;\n") == 1
            text = text.replace("    double dx;\n", "    float dx;\n")
        (tmp_path / os.path.basename(path)).write_text(text)
    monkeypatch.setattr(_passes, "SOURCES", tuple(str(tmp_path / os.path.basename(p)) for p in _passes.SOURCES))
    monkeypatch.setattr(_passes, "HEADER", str(tmp_path / os.path.basename(_passes.HEADER)))
    (tmp_path / "run.ini").write_text(CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(tmp_path / "run.ini"), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "file error: cannot bind the compiled passes: struct kgp_scan declares "
                                       "'float dx', a C type with no ctypes type here\n")
    assert compiler_calls == [] and not cold_cache.exists() and not out.exists()


def test_a_byte_of_any_source_is_a_new_cache_key(tmp_path, monkeypatch):
    # two copies of the sources that differ in one byte of the last source are built under two names
    built = []
    for copy, comment in (("a", b"/* a */\n"), ("b", b"/* b */\n")):
        (tmp_path / copy).mkdir()
        for path in (*_passes.SOURCES, _passes.HEADER):
            with open(path, "rb") as fh:
                text = fh.read()
            (tmp_path / copy / os.path.basename(path)).write_bytes(text + comment * (path == _passes.SOURCES[-1]))
        monkeypatch.setattr(_passes, "SOURCES", tuple(str(tmp_path / copy / os.path.basename(p))
                                                      for p in _passes.SOURCES))
        monkeypatch.setattr(_passes, "HEADER", str(tmp_path / copy / os.path.basename(_passes.HEADER)))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        _passes.library.cache_clear()
        built.append(os.path.basename(_passes.library()._name))
    monkeypatch.undo()
    _passes.library.cache_clear()
    assert built[0] != built[1] and sorted(os.listdir(tmp_path / "cache" / "kgpoint")) == sorted(built)


def _buffers(count):
    return [np.zeros(count, complex) for _ in range(3)]


def _series(rows, windows=0, traced=0):
    return np.zeros((4 + windows, rows)), np.zeros((2, rows, traced), complex)


ONE = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -1.0, 1.0)),))
TWO = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -1.0, 1.0)), OscillatorSpec(0.5, (0.0, 1.0))))


@pytest.mark.parametrize("model, nodes, message", [
    (ONE, (0,), "must lie in 1 ... 5"), (ONE, (6,), "must lie in 1 ... 5"), (ONE, (-1,), "must lie in 1 ... 5"),
    (TWO, (2, 7), "must lie in 1 ... 5"), (TWO, (3,), "1 oscillator nodes but 2 oscillators"),
    (TWO, (3, 2), r"\(3, 2\) must ascend for steps"),
], ids=["first-node", "last-node", "negative", "past-the-end", "unpaired", "descending"])
def test_bind_refuses_a_site_outside_the_grid_or_an_empty_slope(model, nodes, message):
    # the kernel reads and writes the node of each of the model's oscillators, with no bounds check, in a scan up
    # the grid; a ModelSpec cannot hold an empty slope list
    with pytest.raises(ValueError, match=message):
        _passes.bind(*_buffers(7), model, nodes, 0.1, 0.02, [], *_series(1, traced=len(nodes)))


def test_a_secant_start_that_overflows_stops_the_branch_as_not_finite():
    # 0.5 + 0.4 ulp rounds to 0.5 and 0.5 + 0.8 ulp to the next float: the secant's ratio r divides the third
    # frequency's gap by the zero gap of the first two and overflows to inf, and inf times the zero difference of
    # their equal rows makes the secant start nan.  continue_branch refuses such a step; the entry does not.
    status, rows, omega, residual = _passes.branch(ONE, 0.5, 0.4 * math.ulp(0.5), 3, [0.7 + 0j])
    assert status == _passes.NOT_FINITE and omega == math.nextafter(0.5, 1.0) and len(rows) == 2
    assert rows.tolist() == _passes.branch(ONE, 0.5, -0.0, 1, [0.7 + 0j])[1].tolist() * 2  # the solve at 0.5


def test_the_memory_the_library_hands_to_python_is_freed():
    # a branch's rows and a search's list of refinement frequencies are allocated by the library and freed with
    # kgp_free once copied.  A leak of the branch's rows would raise the peak resident set by about 28 MB over 500
    # branches of 951 points; one of the refinement list, 32 bytes a search, stays below what the peak can show.
    # Measured in a process forked from a fresh one: on Linux an exec'd process's peak starts at its parent's.
    script = """if True:
        import os

        pid = os.fork()
        if pid:
            os._exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        import resource
        import numpy as np
        from kgpoint.model import ModelSpec, OscillatorSpec
        from kgpoint.simulator import build_grid, dist_to_manifold, perturbed_solitary_state
        from kgpoint.solitary import continue_branch, solve_profile

        model = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -2.0, 1.0)), OscillatorSpec(0.2, (0.0, -2.0, 1.0))))
        grid = build_grid(model, -10.0, 10.0, 0.02)
        state = perturbed_solitary_state(model, grid, solve_profile(model, 0.4, [0.7, 0.7]), 0.1, seed=1)
        omegas = np.linspace(0.1, 0.9, 17)

        def rounds(count):
            for _ in range(count):
                continue_branch(model, 0.0, 0.95, 0.001, [0.7, 0.7])
            for _ in range(count):
                assert dist_to_manifold(model, grid, state, omegas, 5).wave is not None

        rounds(20)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rounds(500)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
    """
    src = os.path.dirname(os.path.dirname(_passes.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 20 * 1024  # kB


def test_bind_refuses_fewer_than_three_nodes():
    with pytest.raises(ValueError, match="at least 3 nodes"):
        _passes.bind(*_buffers(2), ONE, (1,), 0.1, 0.02, [], *_series(1, traced=1))


@pytest.mark.parametrize("kick, steps, message", [
    (True, 4, "4 steps: the series has 2 rows, a sample every 2 steps"),
    (True, -1, "-1 steps: the series has 2 rows"), (False, 1, "a run bound with no kick takes no steps"),
], ids=["past-the-last-row", "negative", "no-kick"])
def test_a_bound_run_refuses_steps_it_cannot_take(kick, steps, message):
    # the run writes row k // every of the series at each sample and steps with the kick, with no bounds check
    psi, pi, buffer = _buffers(7)
    run = _passes.bind(psi, pi, buffer if kick else None, ONE, (3,), 0.1, 0.02, [], *_series(2, traced=1), every=2)
    with pytest.raises(ValueError, match=message):
        run(steps)
    assert run(1 if kick else 0) == -1


def test_the_bound_call_keeps_its_arrays_alive():
    # bind makes the site and window arrays it passes and holds the model's block; only the call holds them, and
    # packing another model in between neither frees nor replaces the block the call was bound to
    from kgpoint.simulator import FieldState, build_grid, step

    model = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -2.0, 1.0)), OscillatorSpec(0.5, (0.1, -1.0, 0.0, 0.5))))
    grid = build_grid(model, -1.0, 1.5, 0.05)
    psi = np.exp(-grid.x**2) * np.exp(0.3j)
    psi[[0, -1]] = 0.0
    state = FieldState(psi, 0.5j * psi, 0.0)
    expected = step(model, grid, state, 0.02)
    dx = grid.dx
    psi, pi, kick = np.array(state.psi), np.array(state.pi), np.zeros(grid.count, complex)
    series, traces = _series(2, windows=1, traced=2)
    run = _passes.bind(psi, pi, kick, ModelSpec(1.0, model.oscillators), list(grid.oscillator_nodes), dx, 0.02,
                       [(0, grid.count)], series, traces)
    other = ModelSpec(1.0, (OscillatorSpec(0.0, (5.0, 3.0, -7.0)), OscillatorSpec(0.5, (1.0, 9.0))))
    _passes.model_block(other)
    gc.collect()
    litter = [np.full(n, 10**6, dtype=dtype) for n in (2, 5) for dtype in (np.intp, np.intc, float) for _ in range(50)]
    assert run(1) == -1
    assert len(litter) == 300
    assert np.array_equal(psi.view(np.int64), expected.psi.view(np.int64))
    assert np.array_equal(pi.view(np.int64), expected.pi.view(np.int64))


@pytest.mark.parametrize("window", [(0, 8), (-1, 3), (5, 4), (7, 8)], ids=["past-the-end", "negative", "reversed",
                                                                        "beyond"])
def test_the_form_binders_refuse_a_window_outside_the_nodes(window):
    # the form reads every node of each window, with no bounds check
    psi, pi, _ = _buffers(7)
    with pytest.raises(ValueError, match="must lie within the 7 nodes"):
        _passes.bind(psi, pi, None, ONE, (3,), 0.1, 0.0, [window], *_series(1, windows=1, traced=1))
    with pytest.raises(ValueError, match="must lie within the 7 nodes"):
        _passes.Scan(ONE, [], [], np.zeros(7), (-1, -1), 0.1, [(0, 7), window])


def test_the_form_binders_refuse_arrays_of_unequal_length(probe):
    psi, pi = np.zeros(7, complex), np.zeros(6, complex)
    message = "psi and pi as contiguous 1-d complex arrays of one length"
    metric, u = _passes.Scan(ONE, [], [], np.zeros(7), (-1, -1), 0.1, [(0, 7)]), (psi, psi)
    for bind in (lambda: _passes.bind(psi, pi, None, ONE, (3,), 0.1, 0.0, [], *_series(1, traced=1)),
                 lambda: metric.closest(psi, pi),
                 lambda: probe.fit_dist(metric, u, psi, pi), lambda: probe.fit_dist(metric, u, psi, np.zeros(7)),
                 lambda: probe.fit_dist(metric, u, psi, np.zeros(14, complex)[::2])):
        with pytest.raises(ValueError, match=message):
            bind()
    with pytest.raises(ValueError, match="a wave on 6 nodes, the metric's window has 7"):
        probe.fit_dist(metric, u, pi, pi)
    # the series: a column per observable and window, a trace per oscillator node, the same rows in both
    series, traces = _series(3, windows=1, traced=1)
    for blocks in ((series[:4], traces), (series, traces[:, :2]), (series, traces[:, :, :0]),
                   (series, traces.real.copy()), (series[:, ::2], traces[:, ::2])):
        with pytest.raises(ValueError, match="the series needs a writable contiguous"):
            _passes.bind(psi, psi, None, ONE, (3,), 0.1, 0.0, [(0, 7)], *blocks)


def test_the_observer_binder_refuses_a_node_outside_the_state():
    psi, pi, _ = _buffers(7)
    with pytest.raises(ValueError, match=r"must lie in 0 ... 6"):
        _passes.bind(psi, pi, None, ONE, (7,), 0.1, 0.0, [], *_series(1, traced=1))
    with pytest.raises(ValueError, match="1 oscillator nodes but 2 oscillators"):
        _passes.bind(psi, pi, None, TWO, (3,), 0.1, 0.0, [], *_series(1, traced=1))


# 3 nodes, one chunk; and a node short of and past one and two chunks' nodes
@pytest.mark.parametrize("nodes", ["3", "1-chunk-1", "1-chunk+1", "2-chunks-1", "2-chunks+1"])
@pytest.mark.parametrize("build", ["plain", "avx2", "avx512f"])
def test_every_build_of_the_wavefront_keeps_the_plain_build_and_the_reference_bits(probe, build, nodes):
    # each build of the stepping loop on seeded data, with oscillators at the first and last interior node and on
    # each side of a chunk's last float pair and of its edge, for 1, DEPTH - 1, DEPTH, DEPTH + 1 and 2 DEPTH + 3
    # steps, fresh and primed: its p, q and k the plain build's byte for byte, and its p and q reference_kdk's
    from types import SimpleNamespace

    from test_simulator import _same_bits, reference_kdk

    from kgpoint.simulator import FieldState

    depth, chunk = probe.wavefront()
    count = 3 if nodes == "3" else int(nodes[0]) * chunk // 2 + (1 if nodes.endswith("+1") else -1)
    sites = sorted({i for i in (1, chunk // 2 - 2, chunk // 2 - 1, chunk // 2, count - 2) if 1 <= i <= count - 2})
    coefficients = ((0.0, -2.0, 1.0), (0.1, 1.0), (0.3, -1.0, 0.0, 0.5), (0.0, -0.5), (0.2, 0.0, 1.5))
    model = ModelSpec(1.0, tuple(OscillatorSpec(0.1 * i, coefficients[j]) for j, i in enumerate(sites)))
    grid, dt = SimpleNamespace(dx=0.1, oscillator_nodes=sites), 0.02
    if not probe.run(build, model, sites, grid.dx, dt, *np.zeros((3, count), complex), False, 0):
        pytest.skip(f"this CPU does not run the {build} build")
    rng = np.random.default_rng(3400 + count)
    psi, pi = (0.5 * (rng.normal(size=count) + 1j * rng.normal(size=count)) for _ in range(2))
    psi[[0, -1]] = pi[[0, -1]] = 0.0
    for steps in (1, depth - 1, depth, depth + 1, 2 * depth + 3):
        for primed in (False, True):
            runs = []
            for name in ("plain", build):
                p, q, k = psi.copy(), pi.copy(), np.zeros(count, complex)
                if primed:  # k holds p's kick after a run, as kgp_evolve primes each interval after the first
                    probe.run(name, model, sites, grid.dx, dt, p, q, k, False, 1)
                probe.run(name, model, sites, grid.dx, dt, p, q, k, primed, steps)
                runs.append((p, q, k))
            psi_ref, pi_ref = reference_kdk(model, grid, FieldState(psi, pi, 0.0), dt, steps + primed)
            assert np.all(np.isfinite(psi_ref)) and np.all(np.isfinite(pi_ref))
            assert all(map(_same_bits, *runs)), (steps, primed)
            assert _same_bits(runs[1][0], psi_ref) and _same_bits(runs[1][1], pi_ref), (steps, primed)


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


def test_a_counterexample_run_packs_its_model_once(tmp_path, capsys, monkeypatch):
    # the exact wave keeps one model object, which its verification, its initial data and its run share
    from kgpoint.cli import main

    packed, pack = [], _passes._pack

    def counted(model):
        packed.append(model)
        return pack(model)

    monkeypatch.setattr(_passes, "_pack", counted)
    argv = ["counterexample", "--kind", "wide_gap", "--simulate", "--T", "0.1", "--out", str(tmp_path / "wg")]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(packed) == 1


def test_the_known_answers_are_the_references():
    # a fresh build's known-answer case, regenerated from the references: the steps reference_kdk's, the samples the
    # fixed-order form's plus the potential, and the solve reference_solve_profile's; and this build gives them on
    # each of its builds that this CPU runs
    from types import SimpleNamespace

    from test_simulator import fixed_order_dot, fixed_order_form, reference_kdk
    from test_solitary import reference_solve_profile

    from kgpoint.model import potential
    from kgpoint.simulator import FieldState

    case = _passes.KNOWN_CASE
    model = ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -2.0, 1.0)),))
    grid, dx, dt, steps = SimpleNamespace(dx=case["dx"], oscillator_nodes=(3,)), case["dx"], case["dt"], case["steps"]
    start = (np.array(case["psi"]), np.array(case["pi"]))
    end = reference_kdk(model, grid, FieldState(*start, 0.0), dt, steps)
    samples = []
    for k, (psi, pi) in ((0, start), (steps, end)):
        norm2 = fixed_order_form(1.0, dx, (psi, pi), (psi, pi))[0]
        window = (psi[1:6], pi[1:6])
        samples.append((0.0 + k * dt, 0.5 * norm2 + potential(model.oscillators[0], psi[3]),
                        -dx * fixed_order_dot(psi, pi)[1], math.sqrt(norm2),
                        math.sqrt(fixed_order_form(1.0, dx, window, window)[0])))
    wave = reference_solve_profile(model, case["omega"], [0.7])
    solve = (wave.omega, wave.kappa, wave.amplitudes[0].real, wave.amplitudes[0].imag, wave.residual_max)
    regenerated = {"psi": end[0].view(float), "pi": end[1].view(float), "samples": np.array(samples).T.ravel(),
                   "solve": solve}
    assert {name: tuple(map(float.hex, values)) for name, values in regenerated.items()} == _passes.KNOWN_ANSWERS
    _passes._check(_passes.library())
    assert _passes.library().kgp_pick(-1) == _passes.library().kgp_pick(len(_passes.BUILDS))  # the widest, kept


def test_a_build_that_fails_its_known_answer_check_is_not_cached(tmp_path):
    # -ffast-math reassociates and drops the finite-math checks: the fresh build gives other answers, so it raises
    # one OSError line and leaves nothing in the cache
    script = ("import sys\nfrom kgpoint import _passes\n_passes._FLAGS += ('-ffast-math',)\n"
              "try:\n    _passes.library()\nexcept OSError as err:\n    sys.exit(str(err))\n")
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": str(Path(_passes.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "cannot build the compiled passes: the build fails its known-answer check, at the plain build's psi"]
    assert os.listdir(tmp_path / "kgpoint") == []
