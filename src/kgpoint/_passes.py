"""The compiled passes, built from ``_passes.c`` on first use and loaded with ctypes: the stepping loop, the
energy form behind every observer, the Newton solve of the solitary amplitude system, the solitary profile's
sampler, and the CSV text of float64 rows.  One compiled point solve (``solve_point`` in the source) is behind
every solitary solve: the single solve (``solve``), the branch continued in frequency (``branch``), and the manifold
distance's frequency scan and the refinement of its search (``Scan``).  The steps (``bind``), the samples
(``observer``) and the solves share one block of a model's coefficients, positions and mass, packed once per model
object (``model_block``).  The Newton limits and Brent's constants are constants of the source, so a call passes
only what varies; a branch's rows, which grow as it is solved, are allocated by the library and copied out.

The library is built by Python's own C compiler (sysconfig's ``CC``) with
``-O3 -ffp-contract=off -lm``: no fused multiply-add and no reassociation, so
each step keeps numpy's bits and each solve the bits of the Python-float
Newton loop it transcribes, and no ``-march``, so a cached build runs on any
CPU of its architecture.  The energy form sums in one fixed order of its own
(``form_sums`` in the source), so H, Q, the energy norm, the seminorms, the
metric and the phase fit have the same bits whatever the CPU or BLAS.  Two
entries evaluate it, each bound once to its arrays: ``observer``, a whole
observer sample, and ``Metric``, the metric distance to phase-fitted
candidate waves.  ``csv_writer`` prints float64 rows as Python's ``'%.17g'``,
by integer arithmetic on a table of powers of ten (``_powers_of_ten``), built
with Python ints on the first float write.  The library is cached in
``$XDG_CACHE_HOME/kgpoint`` (by default ``~/.cache/kgpoint``), or where that
is not writable in a private directory under the temp directory, named by the
SHA-256 of the source and the compile command.  A build is compiled to a
temporary name and renamed into place, so processes that build at once do not
race.  A build that fails raises OSError with a one-line reason.  Loading a
cached build imports no ``subprocess``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import sysconfig
import tempfile
from functools import cache, partial
from itertools import chain

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_passes.c")
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_LIBS = ("-lm",)  # after the source, or a linker that drops unneeded libraries drops libm
_POINTER, _SIZE, _DOUBLE, _INT = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double, ctypes.c_int


class _Model(ctypes.Structure):
    """struct kgp_model: one model's oscillators, the coefficients of u, u' and u'' of each, their positions, and the
    mass."""

    _fields_ = [("n", _SIZE), ("ncoef", _POINTER), ("coef", _POINTER), ("nslope", _POINTER), ("slope", _POINTER),
                ("ncurv", _POINTER), ("curv", _POINTER), ("positions", _POINTER), ("mass", _DOUBLE)]


class _Field(ctypes.Structure):
    """struct kgp_field: one run's buffers and constants, its model and the model's nodes."""

    _fields_ = [("p", _POINTER), ("q", _POINTER), ("k", _POINTER), ("n", _SIZE), ("dt", _DOUBLE),
                ("c", _DOUBLE), ("scale", _DOUBLE), ("model", ctypes.POINTER(_Model)), ("sites", _POINTER),
                ("force_scale", _DOUBLE)]


class _Observer(ctypes.Structure):
    """struct kgp_observer: one observer's state, constants, model and nodes, windows and series."""

    _fields_ = [("p", _POINTER), ("q", _POINTER), ("n", _SIZE), ("m2", _DOUBLE), ("dx", _DOUBLE), ("every", _SIZE),
                ("t0", _DOUBLE), ("dt", _DOUBLE), ("model", ctypes.POINTER(_Model)), ("sites", _POINTER),
                ("nwindows", _SIZE), ("windows", _POINTER), ("rows", _SIZE), ("series", _POINTER),
                ("traces", _POINTER)]


class _Metric(ctypes.Structure):
    """struct kgp_metric: one state on the metric's outer window, its windows and its scratch."""

    _fields_ = [("p", _POINTER), ("q", _POINTER), ("n", _SIZE), ("m2", _DOUBLE), ("dx", _DOUBLE),
                ("dp", _POINTER), ("dq", _POINTER), ("r_max", _SIZE), ("windows", _POINTER)]


class _Wave(ctypes.Structure):
    """struct kgp_wave: a candidate wave on a metric's outer window."""

    _fields_ = [("p", _POINTER), ("q", _POINTER), ("n", _SIZE)]


class _Scan(ctypes.Structure):
    """struct kgp_scan: a frequency scan's solved waves and their samples on a metric's outer window."""

    _fields_ = [("model", ctypes.POINTER(_Model)), ("nodes", _SIZE), ("x", _POINTER), ("first", _SIZE),
                ("last", _SIZE), ("nstarts", _SIZE), ("starts", _POINTER), ("count", _SIZE), ("rows", _POINTER),
                ("samples", _POINTER)]


class _Nearest(ctypes.Structure):
    """struct kgp_nearest: the wave closest to a state, and the frequencies of the refinement's solves."""

    _fields_ = [("dist", _DOUBLE), ("best", _SIZE), ("row", _POINTER), ("solved", _SIZE), ("refined", _POINTER)]


class _Pow10(ctypes.Structure):
    """struct kgp_pow10: 10^k as t 2^exp2 <= 10^k < (t + 1) 2^exp2, t = hi 2^64 + lo with 2^127 <= t < 2^128."""

    _fields_ = [("hi", ctypes.c_uint64), ("lo", ctypes.c_uint64), ("exp2", ctypes.c_int64)]


_ENTRIES = {  # name: (argtypes, restype)
    "kgp_run": ((ctypes.POINTER(_Field), _INT, _SIZE), None),
    "kgp_sample": ((ctypes.POINTER(_Observer), _SIZE), _DOUBLE),
    "kgp_fit_dist": ((ctypes.POINTER(_Metric), ctypes.POINTER(_Wave)), _DOUBLE),
    "kgp_solve": ((ctypes.POINTER(_Model), _DOUBLE, _POINTER, _POINTER), _INT),
    "kgp_branch": ((ctypes.POINTER(_Model), _DOUBLE, _DOUBLE, _SIZE, _POINTER, _POINTER, _POINTER), _INT),
    "kgp_scan": ((ctypes.POINTER(_Scan), _POINTER, _SIZE), _INT),
    "kgp_nearest": ((ctypes.POINTER(_Metric), ctypes.POINTER(_Scan), ctypes.POINTER(_Nearest)), _INT),
    "kgp_profile": ((_POINTER, _SIZE, _SIZE, _POINTER, _DOUBLE, _POINTER, _POINTER), None),
    "kgp_wave": ((_POINTER, _SIZE, _SIZE, _POINTER, _DOUBLE, _POINTER, _DOUBLE, _DOUBLE, _DOUBLE, _SIZE, _SIZE,
                  _POINTER, _POINTER), None),
    "kgp_free": ((_POINTER,), None),
    "kgp_exp": ((_POINTER, _SIZE), None),
    "kgp_residual": ((ctypes.POINTER(_Model), _POINTER, _DOUBLE, _POINTER, _POINTER, _POINTER), None),
    "kgp_jacobian": ((_SIZE, _POINTER, _DOUBLE, _POINTER, _POINTER), None),
    "kgp_solve_linear": ((_SIZE, _POINTER, _POINTER, _POINTER), _INT),
    "kgp_sup_norm": ((_POINTER, _SIZE), _DOUBLE),
    "kgp_format_rows": ((_POINTER, _SIZE, _SIZE, _POINTER, _POINTER), _SIZE),
}
POW10_K = range(-292, 341)  # the powers of ten that 17-digit printing of a float64 multiplies by
_VALUE_BYTES, _ROW_BYTES = 25, 2  # kgp_format_rows's room for a value and for a row's line end
_BLOCK_BYTES = 1 << 16  # the buffer a block of rows is formatted into


def _compile_command() -> list[str]:
    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise OSError("cannot build the compiled passes: Python's build names no C compiler (sysconfig CC)")
    return shlex.split(cc) + list(_FLAGS)


def _cache_dir() -> str:
    """The first writable of $XDG_CACHE_HOME/kgpoint (default ~/.cache/kgpoint) and the temp directory's."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    for path in (os.path.join(base, "kgpoint"), os.path.join(tempfile.gettempdir(), f"kgpoint-{os.getuid()}")):
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
        except OSError:
            continue
        # a library is loaded from here: the directory must be ours, and no one else may write to it
        info = os.stat(path)
        if os.access(path, os.W_OK) and info.st_uid == os.getuid() and not info.st_mode & 0o022:
            return path
    raise OSError(f"cannot build the compiled passes: no private writable cache directory under {base} "
                  f"or {tempfile.gettempdir()}")


def _build(command: list[str], path: str):
    import subprocess  # here alone, so that loading a cached build does not import it

    fd, building = tempfile.mkstemp(suffix=".so.partial", dir=os.path.dirname(path))
    os.close(fd)
    try:
        try:
            done = subprocess.run([*command, "-o", building, SOURCE, *_LIBS], capture_output=True, text=True,
                                  errors="replace")
        except OSError as err:
            raise OSError(f"cannot build the compiled passes: {command[0]}: {err.strerror or err}") from err
        if done.returncode != 0:
            reason = next((line for line in done.stderr.splitlines() if line.strip()), "no message")
            raise OSError(f"cannot build the compiled passes: {command[0]} exited {done.returncode}: {reason}")
        os.replace(building, path)
    finally:
        if os.path.exists(building):
            os.remove(building)


@cache
def library() -> ctypes.CDLL:
    """The compiled passes, built into the cache unless a build of this source and command is there."""
    command = _compile_command()
    with open(SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read() + b"\0" + shlex.join([*command, *_LIBS]).encode())
    path = os.path.join(_cache_dir(), f"passes-{digest.hexdigest()}.so")
    if not os.path.exists(path):
        _build(command, path)
    lib = ctypes.CDLL(path)
    for name, (argtypes, restype) in _ENTRIES.items():
        entry = getattr(lib, name)
        entry.argtypes, entry.restype = argtypes, restype
    return lib


def _pack(model):
    """struct kgp_model of a ModelSpec: of u, u' and u'' the counts and the coefficients, highest degree first, the
    positions and the mass."""
    arrays = []
    for lists in zip(*((o.coefficients, o.slope_coefficients, o._curvature_coefficients) for o in model.oscillators)):
        arrays.append((_INT * len(lists))(*map(len, lists)))
        arrays.append((_DOUBLE * sum(map(len, lists)))(*(v for u in lists for v in u[::-1])))
    arrays.append((_DOUBLE * model.count)(*model.positions))
    block = _Model(model.count, *map(ctypes.addressof, arrays), model.mass)
    block.arrays = arrays  # the block points into them and holds them
    return ctypes.pointer(block)


_last = (None, None)  # the model last packed and its block


def model_block(model):
    """The model's block, which its steps, samples and solves share, packed once per model object.

    Kept for the model last asked for, by identity: a run, a branch, a scan
    and a command each use one model object, and an equal model's hash and
    comparison would cost a tenth of a solve.  A bound call holds its block.
    """
    global _last
    last = _last  # one read, so that another thread's swap cannot pair this model with another's block
    if last[0] is not model:
        last = _last = (model, _pack(model))
    return last[1]


def _sites(model, nodes, first: int, last: int):
    """The oscillator nodes as a ctypes array; ValueError unless there is one per oscillator, each in first ... last."""
    if len(nodes) != model.count:
        raise ValueError(f"{len(nodes)} oscillator nodes but {model.count} oscillators")
    if not all(first <= i <= last for i in nodes):
        raise ValueError(f"oscillator nodes {tuple(nodes)} must lie in {first} ... {last}")
    return (_SIZE * len(nodes))(*nodes)


def bind(psi: np.ndarray, pi: np.ndarray, kick: np.ndarray, dt: float, c: float, scale: float, model, nodes,
         force_scale: float):
    """The loop over three complex buffers of one length, as one call on one block of its fixed arguments.

    kick's end nodes must be 0.  nodes are the nodes of model's oscillators,
    each in 1 ... count - 2; the force at a node is added to the stencil's
    kick times force_scale.

    Returns run(primed, steps), which makes steps kick-drift-kick steps and
    applies the last one's second half kick; kick must hold psi's kick if
    primed, and holds it after.  The call keeps every array it points into
    alive.
    """
    for a in (psi, pi, kick):
        if a.dtype != complex or not a.flags.c_contiguous or not a.flags.writeable or a.shape != psi.shape:
            raise ValueError("the loop needs writable contiguous complex buffers of one length")
    count = psi.size
    if count < 3:
        raise ValueError(f"the loop needs at least 3 nodes, got {count}")
    sites, packed, lib = _sites(model, nodes, 1, count - 2), model_block(model), library()
    field = _Field(psi.ctypes.data, pi.ctypes.data, kick.ctypes.data, 2 * count, dt, c, scale, packed,
                   ctypes.addressof(sites), force_scale)
    field.arrays = (psi, pi, kick, packed, sites)  # the block points into them; the call holds the block
    return partial(lib.kgp_run, ctypes.pointer(field))


def _pair(psi: np.ndarray, pi: np.ndarray) -> int:
    """The length of a (psi, pi) pair of contiguous 1-d complex arrays of one length; ValueError otherwise."""
    for a in (psi, pi):
        if a.dtype != complex or a.ndim != 1 or not a.flags.c_contiguous or a.shape != psi.shape:
            raise ValueError("the energy form needs psi and pi as contiguous 1-d complex arrays of one length")
    return psi.size


def _ranges(windows, count: int):
    """(start, stop) node windows as one flat ctypes array; ValueError unless 0 <= start <= stop <= count."""
    if not all(0 <= start <= stop <= count for start, stop in windows):
        raise ValueError(f"windows {list(windows)} must lie within the {count} nodes")
    return (_SIZE * (2 * len(windows)))(*(i for w in windows for i in w))


def _block(a: np.ndarray, dtype, shape) -> int:
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous or not a.flags.writeable:
        raise ValueError(f"the series needs a writable contiguous {np.dtype(dtype)} block of shape {shape}")
    return a.ctypes.data


def observer(psi: np.ndarray, pi: np.ndarray, m2: float, dx: float, model, nodes, windows, series, traces,
             every: int = 1, t0: float = 0.0, dt: float = 0.0):
    """One observer sample of (psi, pi) as one call on one block of its fixed arguments.

    nodes are the nodes of model's oscillators, whose potentials H sums;
    windows are (start, stop) node ranges.  series holds a column per
    observable, a row per sample: t, H, Q, the energy norm and each window's
    seminorm; traces the rows of psi and of pi at the nodes, shape
    (2, rows, len(nodes)).  Returns sample(k), which writes row k // every,
    that at time t0 + k dt, and returns the squared energy norm; k // every
    must be a row.  The call keeps every array it points into alive.
    """
    count = _pair(psi, pi)
    sites = _sites(model, nodes, 0, count - 1)
    if every < 1:
        raise ValueError("every must be at least 1")
    rows = series.shape[-1]
    blocks = _block(series, float, (4 + len(windows), rows)), _block(traces, complex, (2, rows, len(nodes)))
    ranges, packed = _ranges(windows, count), model_block(model)
    block = _Observer(psi.ctypes.data, pi.ctypes.data, count, m2, dx, every, t0, dt, packed, ctypes.addressof(sites),
                      len(windows), ctypes.addressof(ranges), rows, *blocks)
    block.arrays = (psi, pi, packed, sites, ranges, series, traces)  # the block points into them
    return partial(library().kgp_sample, ctypes.pointer(block))


class Wave:
    """A candidate wave (psi, pi) on a metric's outer window, bound once for every distance to it."""

    def __init__(self, psi: np.ndarray, pi: np.ndarray):
        self.n = _pair(psi, pi)
        block = _Wave(psi.ctypes.data, pi.ctypes.data, self.n)
        block.arrays = (psi, pi)
        self.block = ctypes.pointer(block)


class Metric:
    """The metric sum 2^-R |.|_{E,R} over R = 1 ... r_max of one state (psi, pi) on the outer window's nodes.

    windows are the (start, stop) nodes of radius 1 ... r_max within the
    outer window.  dist(wave) is the metric distance to the closest phase of
    a Wave on the same nodes, and dist() the state's own metric.
    """

    def __init__(self, psi: np.ndarray, pi: np.ndarray, m2: float, dx: float, windows):
        self.n = _pair(psi, pi)
        ranges = _ranges(windows, self.n)
        scratch = np.empty((2, self.n), dtype=complex)
        block = _Metric(psi.ctypes.data, pi.ctypes.data, self.n, m2, dx, scratch[0].ctypes.data,
                        scratch[1].ctypes.data, len(windows), ctypes.addressof(ranges))
        block.arrays = (psi, pi, ranges, scratch)
        self.block, self.fit = ctypes.pointer(block), library().kgp_fit_dist

    def dist(self, wave: Wave | None = None) -> float:
        if wave is None:
            return self.fit(self.block, None)
        if wave.n != self.n:
            raise ValueError(f"a wave on {wave.n} nodes, the metric's window has {self.n}")
        return self.fit(self.block, wave.block)


def _oscillators(positions, amplitudes):
    """The count of oscillators that zip pairs from positions and amplitudes, and their positions and amplitudes (Re
    and Im interleaved) as ctypes arrays."""
    n = min(len(positions), len(amplitudes))
    return n, (_DOUBLE * n)(*positions[:n]), (_DOUBLE * (2 * n))(*(p for z in amplitudes[:n] for p in (z.real, z.imag)))


def profile(x: np.ndarray, positions, kappa: float, amplitudes) -> np.ndarray:
    """phi = sum_J C_J exp(-kappa |X - X_J|) at each float64 point X of x, a complex array of x's shape; the
    amplitudes C_J pair with the positions X_J as zip pairs them, and exp is libm's (kgp_profile)."""
    points, out = np.ascontiguousarray(x, dtype=float), np.empty(np.shape(x), dtype=complex)
    n, pos, c = _oscillators(positions, amplitudes)
    library().kgp_profile(points.ctypes.data, points.size, n, pos, kappa, c, out.ctypes.data)
    return out


def wave(x: np.ndarray, positions, kappa: float, amplitudes, omega: float, phase: complex, ends):
    """The state (psi, pi) of a wave at the float64 points x, 1-d: psi = phi phase, phi profile's, 0 at the
    points ends (first, last; -1 for none), and pi = -1j omega psi, each product numpy's (kgp_wave)."""
    points = np.ascontiguousarray(x, dtype=float)
    if points.ndim != 1:
        raise ValueError(f"a wave's state is sampled at 1-d points, not {points.ndim}-d")
    psi, pi = np.empty(points.size, dtype=complex), np.empty(points.size, dtype=complex)
    phase, (n, pos, c) = complex(phase), _oscillators(positions, amplitudes)
    library().kgp_wave(points.ctypes.data, points.size, n, pos, kappa, c, omega, phase.real, phase.imag, *ends,
                       psi.ctypes.data, pi.ctypes.data)
    return psi, pi


def exp(values: np.ndarray) -> np.ndarray:
    """values, a writable contiguous float64 array, with each replaced by libm's exp of it; returned."""
    if values.dtype != float or not values.flags.c_contiguous or not values.flags.writeable:
        raise ValueError("exp needs a writable contiguous float64 array")
    library().kgp_exp(values.ctypes.data, values.size)
    return values


SOLVED, ZERO, FAILED, OUT_OF_BAND, NOT_FINITE = range(5)  # the statuses of kgp_solve, kgp_branch and kgp_nearest


def _amplitudes(model, amps):
    """The amplitudes, one per oscillator of model, as a ctypes array, Re and Im interleaved."""
    if len(amps) != model.count:
        raise ValueError(f"the amplitude system has {model.count} oscillators, not {len(amps)}")
    return (_DOUBLE * (2 * model.count))(*(p for z in amps for p in (z.real, z.imag)))


def solve(model, omega: float, amps) -> tuple[int, list[float]]:
    """The damped Newton solve of model's amplitude system at omega from the finite amps (Python complex), in one
    kgp_solve call: (status, row), the status SOLVED, ZERO, FAILED or OUT_OF_BAND, and row the list of floats omega,
    kappa, Re and Im of each amplitude and the residual's sup-norm, the amplitudes solved if SOLVED."""
    row = (_DOUBLE * (2 * model.count + 3))()
    status = library().kgp_solve(model_block(model), omega, _amplitudes(model, amps), row)
    if status < 0:
        raise MemoryError("no memory for the amplitude system's Newton solve")
    return status, row[:]


def branch(model, start: float, step: float, count: int, guess):
    """Continuation of model's branch from the finite guess over the count frequencies start + step k, in one
    kgp_branch call: (status, rows, omega, residual).

    rows is a read-only float64 array of a row per point solved, laid out
    as solve's; the status SOLVED when every frequency was solved, else the
    stopping point's, ZERO, FAILED, OUT_OF_BAND or NOT_FINITE, at omega,
    with a failed solve's residual (both None after SOLVED).  kgp_branch's
    comment gives the starts and the retry.
    """
    cols = 2 * model.count + 3
    rows, solved = ctypes.POINTER(_DOUBLE)(), _SIZE()
    status = library().kgp_branch(model_block(model), start, step, count, _amplitudes(model, guess),
                                  ctypes.byref(rows), ctypes.byref(solved))
    if status < 0:
        raise MemoryError("no memory for the amplitude system's Newton solve")
    try:
        size = solved.value * cols
        data = np.frombuffer(ctypes.string_at(rows, size * ctypes.sizeof(_DOUBLE))).reshape(solved.value, cols)
        omega, residual = (None, None) if status == SOLVED else (rows[size], rows[size + cols - 1])
    finally:
        library().kgp_free(rows)
    return status, data, omega, residual


class Scan:
    """A frequency scan of model's solitary waves, each solved and sampled on a metric's outer window once, in one
    kgp_scan call, and bound for every search of the wave closest to a state.

    omegas are the frequencies in order, inside the band, and starts the
    shared Newton starts, tried after the last solved wave's amplitudes.  x
    holds the window's node coordinates and ends its Dirichlet end nodes
    (first, last), -1 where it holds none.  rows holds solve's row of each
    solved frequency, samples its (psi, pi).
    """

    def __init__(self, model, omegas, starts, x: np.ndarray, ends):
        if x.dtype != float or x.ndim != 1 or not x.flags.c_contiguous:
            raise ValueError("a scan's window needs its node coordinates as a contiguous 1-d float64 array")
        frequencies, self.n, self.cols = np.ascontiguousarray(omegas, dtype=float), x.size, 2 * model.count + 3
        guesses = (_DOUBLE * (2 * model.count * len(starts)))()  # filled by slice: a start of another length is refused
        guesses[:] = [p for start in starts for z in start for p in (z.real, z.imag)]
        rows, samples = np.empty((frequencies.size, self.cols)), np.empty((frequencies.size, 2, x.size), dtype=complex)
        packed = model_block(model)
        block = _Scan(packed, x.size, x.ctypes.data, *ends, len(starts), ctypes.addressof(guesses), 0, rows.ctypes.data,
                      samples.ctypes.data)
        block.arrays = (packed, x, guesses, rows, samples)  # the block points into them
        self.block, self.library = ctypes.pointer(block), library()
        if self.library.kgp_scan(self.block, frequencies.ctypes.data, frequencies.size) < 0:
            raise MemoryError("no memory for the manifold distance's frequency scan")
        self.rows, self.samples = rows[:block.count], samples[:block.count]
        for array in (self.rows, self.samples):
            array.setflags(write=False)

    def closest(self, metric: Metric):
        """The wave closest to metric's state, in one kgp_nearest call: (dist, row, refined).

        row is the closest wave's row as a list of floats, laid out as rows',
        whether the wave is the scan's or a refinement's, and is None for the
        zero wave; refined holds the frequencies of the refinement's solves,
        in order.
        """
        if metric.n != self.n:
            raise ValueError(f"a state on {metric.n} nodes, the scan's window has {self.n}")
        row = (_DOUBLE * self.cols)()
        found = _Nearest(0.0, -1, ctypes.addressof(row), 0, None)
        status = self.library.kgp_nearest(metric.block, self.block, ctypes.byref(found))
        if status < 0:
            raise MemoryError("no memory for the manifold distance's refinement")
        refined = ctypes.cast(found.refined, ctypes.POINTER(_DOUBLE))[:found.solved]
        self.library.kgp_free(found.refined)
        if status != SOLVED:  # each refinement frequency lies between two solved ones, inside the band
            raise RuntimeError(f"the manifold distance's search ended with status {status}")
        return found.dist, None if found.best < 0 else row[:], refined


def residual(model, coupling, k2: float, amps) -> list[float]:
    """Re and Im of 2 kappa C_J - F_J(psi_J), interleaved per J, at k2 = 2 kappa and the coupling rows exp(-kappa
    |X_J - X_K|): the solve's own residual."""
    c, rows = _amplitudes(model, amps), (_DOUBLE * (model.count**2))()
    rows[:] = list(chain.from_iterable(coupling))  # filled by slice: a wrong length is refused
    res = (_DOUBLE * len(c))()
    library().kgp_residual(model_block(model), rows, k2, c, res, (_DOUBLE * (3 * len(amps)))())
    return res[:]


@cache
def _powers_of_ten():
    """struct kgp_pow10 of 10^k for each k of POW10_K, in order, from exact Python ints."""

    def entry(k):
        power = 10**abs(k)
        if k >= 0:
            exp2 = power.bit_length() - 128
            t = power >> exp2 if exp2 >= 0 else power << -exp2
        else:  # 2^-exp2 / 10^-k lies in (2^127, 2^128)
            exp2 = -127 - power.bit_length()
            t = (1 << -exp2) // power
        return t >> 64, t & (2**64 - 1), exp2

    return (_Pow10 * len(POW10_K))(*map(entry, POW10_K))


def csv_writer(rows: np.ndarray):
    """write(fh), which writes the 2-d float64 rows to the binary file fh as CSV lines: each value as Python's
    '%.17g' ('nan' for a NaN of either sign), comma-separated, each row CRLF-ended.

    The library is loaded, and on the first call the table of powers of ten
    built, before write is returned.  write formats blocks of rows into one
    buffer of about _BLOCK_BYTES, so its memory does not grow with the rows.
    """
    if rows.dtype != float or rows.ndim != 2:
        raise ValueError(f"the CSV formatter needs a 2-d float64 array, not {rows.ndim}-d {rows.dtype}")
    entry, table = library().kgp_format_rows, _powers_of_ten()
    cols = rows.shape[1]
    block = max(1, _BLOCK_BYTES // (cols * _VALUE_BYTES + _ROW_BYTES))

    def write(fh):
        pow10 = ctypes.addressof(table) - POW10_K.start * ctypes.sizeof(_Pow10)  # the entry of 10^0
        buffer = np.empty(block * (cols * _VALUE_BYTES + _ROW_BYTES), dtype=np.uint8)
        for start in range(0, len(rows), block):
            part = np.ascontiguousarray(rows[start:start + block])
            fh.write(buffer[:entry(part.ctypes.data, len(part), cols, pow10, buffer.ctypes.data)])

    return write
