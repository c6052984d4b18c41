"""The compiled passes, built on first use into one library from their C sources and loaded with ctypes.

The sources (``SOURCES``) hold one concept each: the stepping loop, the energy form behind every observer, the Newton
solve of the solitary amplitude system, the pinned profile's sampler with the manifold distance's scan and search,
and the CSV text of float64 rows.  What one source calls in another is declared in the header they share (``HEADER``)
and hidden, so the library exports only its ``kgp_`` entries.  Their ctypes declarations (``entries``) and the
structures of their blocks (``structures``) are read from the sources, and a block is built by field name.  One
compiled point solve (``solve_point``) is behind every solitary solve: the branch continued in frequency
(``branch``), whose branch of one frequency is the single solve, and the manifold distance's frequency scan and the
refinement of its search (``Scan``).  A whole run, its steps and its samples, is one call on one block (``bind``); the
runs and the solves share one block of a model's coefficients, positions and mass, packed once per model object
(``model_block``).  The Newton limits and Brent's constants are constants of the sources, so a call passes only what
varies; a branch's rows, which grow as it is solved, are allocated by the library and copied out.

The library is built by Python's own C compiler (sysconfig's ``CC``) with
``-O3 -ffp-contract=off -lm``: no fused multiply-add and no reassociation, so
each step keeps numpy's bits and each solve the bits of a Python-float Newton
loop (tests/test_solitary.py::reference_solve_profile).  There is no
``-march``: the stepping loop and the energy form's sums are each compiled
three times, plain and, on x86-64, for AVX2 and for AVX-512F by target
attributes, and one pick (``kgp_pick``) runs the widest build that the CPU
runs (``__builtin_cpu_supports``) for both, made when the library loads, so a
cached library runs on any CPU of its architecture, and every build keeps the
same bits.  The energy form sums in one fixed order of its own
(``form_sums``), so H, Q, the energy norm, the seminorms, the metric and the
phase fit have the same bits whatever the CPU, build or BLAS.  Two blocks evaluate it:
``bind``'s run, whose samples are whole rows of observers, and a ``Scan``,
which holds the metric's windows and fits its candidate waves to any state
passed to it: the metric alone is a scan of no frequencies, whose one
candidate is the zero wave.  ``csv_writer`` prints float64 rows as Python's
``'%.17g'``, by integer arithmetic on a table of powers of ten
(``_powers_of_ten``), built with Python ints on the first CSV write.  The library is cached in
``$XDG_CACHE_HOME/kgpoint`` (by default ``~/.cache/kgpoint``), or where that is
not writable in a private directory under the temp directory, named by the
SHA-256 of every source, the header and the compile command.  A build is
compiled to a temporary name and renamed into place, so processes that build at
once do not race.  Before the rename, a fresh build must give the known
answers (``KNOWN_CASE``, ``KNOWN_ANSWERS``) on each of its builds that the CPU
runs, so a compiler that fuses, reassociates or folds what the sources keep
apart is caught there.  A build that fails raises OSError with a one-line
reason and leaves no library in the cache.  Loading a cached build runs no
check and imports no ``subprocess``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shlex
import sysconfig
import tempfile
from functools import cache

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
# compiled in this order by one command: the stepping loop, the energy form, the amplitude solve, the profile sampler
# with the manifold distance's scan and search, and the CSV formatter
SOURCES = tuple(os.path.join(_HERE, f"_passes_{part}.c") for part in ("step", "form", "solve", "search", "csv"))
HEADER = os.path.join(_HERE, "_passes.h")
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_LIBS = ("-lm",)  # after the sources, or a linker that drops unneeded libraries drops libm
_SIZE, _DOUBLE, _INT = ctypes.c_ssize_t, ctypes.c_double, ctypes.c_int
# the C types that the structs and the entries pass by value, and void, an entry's return of nothing
_SCALARS = {"double": _DOUBLE, "ptrdiff_t": _SIZE, "int": _INT, "uint64_t": ctypes.c_uint64, "int64_t": ctypes.c_int64,
            "void": None}
_COMMENT = re.compile(r"/\*[^*]*\*+(?:[^/*][^*]*\*+)*/|//[^\n]*")  # a /* */ comment unrolled, which re scans fast
# a struct's definition and a function's, each matched from its literal start, which re finds fast
_STRUCT = re.compile(r"struct\s+(kgp_\w+)\s*\{([^}]*)\}")
_ENTRY = re.compile(r"(kgp_\w+)\s*\(([^)]*)\)\s*\{")
POW10_K = range(-292, 341)  # the powers of ten that 17-digit printing of a float64 multiplies by
_VALUE_BYTES, _ROW_BYTES = 25, 2  # kgp_format_rows's room for a value and for a row's line end
_BLOCK_BYTES = 1 << 16  # the buffer a block of rows is formatted into


def _declaration(text: str, structs, owner: str):
    """(name, ctypes type) of one C declaration such as 'const double *x' in owner (a struct or an entry): a pointer
    to a struct of structs is a pointer to its structure, any other pointer c_void_p; OSError for another type."""
    text = " ".join(text.split())
    kind = [t for t in re.findall(r"\*|\w+", text) if t not in ("const", "restrict")]  # e.g. double, *, x
    name = kind.pop() if kind else ""
    if re.fullmatch(r"[\w *]+", text) and kind:
        if len(kind) == 3 and kind[0] == "struct" and kind[1] in structs and kind[2] == "*":
            return name, ctypes.POINTER(structs[kind[1]])
        if "*" in kind:
            return name, ctypes.c_void_p
        if " ".join(kind) in _SCALARS:
            return name, _SCALARS[" ".join(kind)]
    raise OSError(f"cannot bind the compiled passes: {owner} declares '{text}', a C type with no ctypes type here")


@cache
def structures(text: str) -> dict:
    """A ctypes Structure for each struct kgp_* that the C text defines, by name, its fields named and ordered as in C.

    Cached by text, so that a reload of the same sources keeps the types of
    the blocks packed before it, which the entries' argtypes check.
    """
    bodies = dict(_STRUCT.findall(_COMMENT.sub(" ", text)))
    structs = {name: type(name, (ctypes.Structure,), {}) for name in bodies}
    for name, body in bodies.items():
        fields = []
        for declaration in filter(str.strip, body.split(";")):  # a type, then its declarators: double *p, *q
            base, rest = re.match(r"\s*((?:const\s+)?(?:struct\s+)?\w*)(.*)", declaration, re.DOTALL).groups()
            fields += [_declaration(f"{base} {each}", structs, f"struct {name}") for each in rest.split(",")]
        structs[name]._fields_ = fields
    return structs


def entries(text: str, structs) -> dict:
    """(argtypes, restype) of each function kgp_* that the C text defines and does not declare static, by name."""
    text, found = _COMMENT.sub(" ", text), {}
    for match in _ENTRY.finditer(text):
        head, params = text[text.rfind("\n", 0, match.start()) + 1:match.end(1)], match[2]  # its type on its line
        if head.split()[0] != "static":
            name, restype = _declaration(head, structs, head.split()[-1])
            args = params.split(",") if params.strip() not in ("", "void") else []
            found[name] = tuple(_declaration(arg, structs, name)[1] for arg in args), restype
    return found


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


def _build(command: list[str], path: str, declared: dict, structs: dict):
    import subprocess  # here alone, so that loading a cached build does not import it

    fd, building = tempfile.mkstemp(suffix=".so.partial", dir=os.path.dirname(path))
    os.close(fd)
    try:
        try:
            done = subprocess.run([*command, "-o", building, *SOURCES, *_LIBS], capture_output=True, text=True,
                                  errors="replace")
        except OSError as err:
            raise OSError(f"cannot build the compiled passes: {command[0]}: {err.strerror or err}") from err
        if done.returncode != 0:
            reason = next((line for line in done.stderr.splitlines() if line.strip()), "no message")
            raise OSError(f"cannot build the compiled passes: {command[0]} exited {done.returncode}: {reason}")
        _check(_load(building, declared, structs))
        os.replace(building, path)
    finally:
        if os.path.exists(building):
            os.remove(building)


def _load(path: str, declared: dict, structs: dict) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    for name, (argtypes, restype) in declared.items():
        entry = getattr(lib, name)
        entry.argtypes, entry.restype = argtypes, restype
    lib.structs, lib.entries = structs, declared
    return lib


@cache
def library() -> ctypes.CDLL:
    """The compiled passes, built into the cache unless a build of these sources, header and command is there, with
    the entries declared as the sources define them (entries) and the structures of their structs (structs).  A
    fresh build is cached only once it gives the known answers (_check)."""
    command, texts, digest = _compile_command(), [], hashlib.sha256()
    for path in (*SOURCES, HEADER):
        with open(path, "rb") as fh:
            texts.append(fh.read())
        digest.update(hashlib.sha256(texts[-1]).digest())
    text = b"".join(texts).decode()
    structs = structures(text)
    declared = entries(text, structs)  # before a build: a type with no ctypes type is refused first
    digest.update(shlex.join([*command, *_LIBS]).encode())
    path = os.path.join(_cache_dir(), f"passes-{digest.hexdigest()}.so")
    if not os.path.exists(path):
        _build(command, path, declared, structs)
    return _load(path, declared, structs)


def _pack(model, structs=None):
    """struct kgp_model of a ModelSpec, of the library's structs unless others are given: of u, u' and u'' the counts
    and the coefficients, highest degree first, the positions and the mass."""
    arrays = []
    for lists in zip(*((o.coefficients, o.slope_coefficients, o._curvature_coefficients) for o in model.oscillators)):
        arrays.append((_INT * len(lists))(*map(len, lists)))
        arrays.append((_DOUBLE * sum(map(len, lists)))(*(v for u in lists for v in u[::-1])))
    arrays.append((_DOUBLE * model.count)(*model.positions))
    fields = zip(("ncoef", "coef", "nslope", "slope", "ncurv", "curv", "positions"), map(ctypes.addressof, arrays))
    block = (structs or library().structs)["kgp_model"](n=model.count, mass=model.mass, **dict(fields))
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


def bind(psi: np.ndarray, pi: np.ndarray, kick, model, nodes, dx: float, dt: float, windows, series, traces,
         every: int = 1, t0: float = 0.0):
    """A run of (psi, pi), stepped and sampled in one call on one block of its fixed arguments.

    kick, a third complex buffer whose end nodes are 0, holds the kick of the
    steps, which update psi and pi in place; None binds a run of no steps,
    which only reads psi and pi.  nodes are the nodes of model's oscillators,
    ascending and each in 1 ... len - 2 for steps (any order in 0 ... len - 1
    otherwise): their forces join the steps, their potentials H.  windows are
    (start, stop) node ranges.  series holds a column per observable, a row per sample: t, H, Q,
    the energy norm and each window's seminorm; traces the rows of psi and of
    pi at the nodes, shape (2, rows, len(nodes)).

    Returns evolve(steps), which samples step 0 into row 0, makes steps
    kick-drift-kick steps of dt, each run of every steps followed by the
    sample at time t0 + k dt into row k // every, and returns the first
    sampled step past 0 whose psi is not finite, where the run stopped, or
    -1.  steps // every must be a row.  The call keeps every array it points
    into alive.
    """
    count, end = _pair(psi, pi), 0
    if kick is not None:
        for a in (psi, pi, kick):
            if a.dtype != complex or not a.flags.c_contiguous or not a.flags.writeable or a.shape != psi.shape:
                raise ValueError("the loop needs writable contiguous complex buffers of one length")
        if count < 3:
            raise ValueError(f"the loop needs at least 3 nodes, got {count}")
        end = 1  # a step reads each site's neighbours, and the kick at the end nodes stays 0
    sites = _sites(model, nodes, end, count - 1 - end)
    if kick is not None and list(nodes) != sorted(nodes):  # the steps take each site's force in a scan up the grid
        raise ValueError(f"oscillator nodes {tuple(nodes)} must ascend for steps")
    if every < 1:
        raise ValueError("every must be at least 1")
    rows = series.shape[-1]
    blocks = _block(series, float, (4 + len(windows), rows)), _block(traces, complex, (2, rows, len(nodes)))
    ranges, packed, lib = _ranges(windows, count), model_block(model), library()
    block = lib.structs["kgp_run"](p=psi.ctypes.data, q=pi.ctypes.data, k=None if kick is None else kick.ctypes.data,
                                   n=count, dx=dx, dt=dt, model=packed, sites=ctypes.addressof(sites), every=every,
                                   t0=t0, nwindows=len(windows), windows=ctypes.addressof(ranges), rows=rows,
                                   series=blocks[0], traces=blocks[1])
    block.arrays = (psi, pi, kick, packed, sites, ranges, series, traces)  # the block points into them
    entry, pointer = lib.kgp_evolve, ctypes.pointer(block)

    def evolve(steps: int) -> int:
        if steps and kick is None:
            raise ValueError("a run bound with no kick takes no steps")
        if not 0 <= steps // every < rows:
            raise ValueError(f"{steps} steps: the series has {rows} rows, a sample every {every} steps")
        return entry(pointer, steps)

    return evolve


def profile(model, x: np.ndarray, rate: float, amplitudes, sine: bool = False) -> np.ndarray:
    """phi = sum_J C_J g(|X - X_J|) at each float64 point X of x, a complex array of x's shape, for model's positions
    X_J and an amplitude C_J per oscillator (ValueError otherwise), with g(r) = exp(-rate r), or sin(rate r) if sine;
    exp and sin are libm's (kgp_profile)."""
    points, out = np.ascontiguousarray(x, dtype=float), np.empty(np.shape(x), dtype=complex)
    library().kgp_profile(model_block(model), points.ctypes.data, points.size, rate, _amplitudes(model, amplitudes),
                          sine, out.ctypes.data)
    return out


def wave(model, x: np.ndarray, kappa: float, amplitudes, omega: float, phase: complex, ends):
    """The state (psi, pi) of a wave at the float64 points x, 1-d: psi = phi phase, phi profile's, 0 at the
    points ends (first, last; -1 for none), and pi = -1j omega psi, each product numpy's (kgp_wave)."""
    points = np.ascontiguousarray(x, dtype=float)
    if points.ndim != 1:
        raise ValueError(f"a wave's state is sampled at 1-d points, not {points.ndim}-d")
    psi, pi, phase = np.empty(points.size, dtype=complex), np.empty(points.size, dtype=complex), complex(phase)
    library().kgp_wave(model_block(model), points.ctypes.data, points.size, kappa, _amplitudes(model, amplitudes),
                       omega, phase.real, phase.imag, *ends, psi.ctypes.data, pi.ctypes.data)
    return psi, pi


def exp(values: np.ndarray) -> np.ndarray:
    """values, a writable contiguous float64 array, with each replaced by libm's exp of it; returned."""
    if values.dtype != float or not values.flags.c_contiguous or not values.flags.writeable:
        raise ValueError("exp needs a writable contiguous float64 array")
    library().kgp_exp(values.ctypes.data, values.size)
    return values


SOLVED, ZERO, FAILED, OUT_OF_BAND, NOT_FINITE = range(5)  # the statuses of kgp_branch and kgp_nearest


def _amplitudes(model, amps):
    """The amplitudes, one per oscillator of model, as a ctypes array, Re and Im interleaved."""
    if len(amps) != model.count:
        raise ValueError(f"the amplitude system has {model.count} oscillators, not {len(amps)}")
    return (_DOUBLE * (2 * model.count))(*(p for z in amps for p in (z.real, z.imag)))


def branch(model, start: float, step: float, count: int, guess):
    """Continuation of model's branch from the finite guess over the count frequencies start + step k, in one
    kgp_branch call: (status, rows, omega, residual).

    rows is a read-only float64 array of a row per point solved: omega, kappa, Re and Im of each amplitude and the
    residual's sup-norm.  The status is SOLVED when every frequency was solved, else the stopping point's, ZERO,
    FAILED, OUT_OF_BAND or NOT_FINITE, at omega, with a failed solve's residual (both None after SOLVED).
    kgp_branch's comment gives the starts and the retry.
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
    kgp_scan call, and bound with the metric for every search of the wave closest to a state.

    omegas are the frequencies in order, inside the band, and starts the
    shared Newton starts, tried after the last solved wave's amplitudes.  x
    holds the window's node coordinates and ends its Dirichlet end nodes
    (first, last), -1 where it holds none; windows are the (start, stop)
    nodes of radius 1 ... r_max within it, and dx the grid's.  rows holds
    branch's row of each solved frequency, samples its (psi, pi).  A scan of no
    frequencies binds the metric alone.  The block holds no state, so threads
    may call one scan at once.
    """

    def __init__(self, model, omegas, starts, x: np.ndarray, ends, dx: float, windows):
        if x.dtype != float or x.ndim != 1 or not x.flags.c_contiguous:
            raise ValueError("a scan's window needs its node coordinates as a contiguous 1-d float64 array")
        frequencies, self.n, self.cols = np.ascontiguousarray(omegas, dtype=float), x.size, 2 * model.count + 3
        guesses = (_DOUBLE * (2 * model.count * len(starts)))()  # filled by slice: a start of another length is refused
        guesses[:] = [p for start in starts for z in start for p in (z.real, z.imag)]
        rows, samples = np.empty((frequencies.size, self.cols)), np.empty((frequencies.size, 2, x.size), dtype=complex)
        ranges, packed, self.library = _ranges(windows, x.size), model_block(model), library()
        block = self.library.structs["kgp_scan"](model=packed, nodes=x.size, x=x.ctypes.data, first=ends[0],
                                                 last=ends[1], dx=dx, r_max=len(windows),
                                                 windows=ctypes.addressof(ranges), nstarts=len(starts),
                                                 starts=ctypes.addressof(guesses), rows=rows.ctypes.data,
                                                 samples=samples.ctypes.data)
        block.arrays = (packed, x, ranges, guesses, rows, samples)  # the block points into them
        self.block = ctypes.pointer(block)
        if self.library.kgp_scan(self.block, frequencies.ctypes.data, frequencies.size) < 0:
            raise MemoryError("no memory for the manifold distance's frequency scan")
        self.rows, self.samples = rows[:block.count], samples[:block.count]
        for array in (self.rows, self.samples):
            array.setflags(write=False)

    def _state(self, psi: np.ndarray, pi: np.ndarray):
        """psi's and pi's addresses; ValueError unless they are a pair (_pair) on the window's nodes."""
        n = _pair(psi, pi)
        if n != self.n:
            raise ValueError(f"a state on {n} nodes, the scan's window has {self.n}")
        return psi.ctypes.data, pi.ctypes.data

    def closest(self, psi: np.ndarray, pi: np.ndarray):
        """The wave closest to the state (psi, pi) on the window's nodes, in one kgp_nearest call: (dist, row,
        refined), dist the metric sum 2^-R |.|_{E,R} over R = 1 ... r_max of the state's difference from the wave.

        row is the closest wave's row as a list of floats, laid out as rows', whether the wave is the scan's or a
        refinement's, and is None for the zero wave, a scan of no frequencies' one candidate; refined holds the
        frequencies of the refinement's solves, in order.
        """
        state, row = self._state(psi, pi), (_DOUBLE * self.cols)()
        found = self.library.structs["kgp_nearest"](row=ctypes.addressof(row))
        status = self.library.kgp_nearest(self.block, *state, ctypes.byref(found))
        if status < 0:
            raise MemoryError("no memory for the manifold distance's refinement")
        refined = ctypes.cast(found.refined, ctypes.POINTER(_DOUBLE))[:found.solved]
        self.library.kgp_free(found.refined)
        if status != SOLVED:  # each refinement frequency lies between two solved ones, inside the band
            raise RuntimeError(f"the manifold distance's search ended with status {status}")
        return found.dist, None if found.best < 0 else row[:], refined


def residual(model, omega: float, amps) -> list[float]:
    """Re and Im of 2 kappa C_J - F_J(psi_J), interleaved per J, at omega, with kappa and the coupling formed as
    every solve forms them, in one kgp_residual call: the solve's own residual.  ValueError beyond the band."""
    c = _amplitudes(model, amps)
    res = (_DOUBLE * len(c))()
    status = library().kgp_residual(model_block(model), omega, c, res)
    if status < 0:
        raise MemoryError("no memory for the amplitude system's residual")
    if status == OUT_OF_BAND:
        raise ValueError(f"|omega|={abs(omega)} exceeds the mass {model.mass}")
    return res[:]


@cache
def _powers_of_ten():
    """struct kgp_pow10 of 10^k for each k of POW10_K, in order, from exact Python ints."""
    return _power_table(library().structs["kgp_pow10"])


def _power_table(pow10):
    def entry(k):
        power = 10**abs(k)
        if k >= 0:
            exp2 = power.bit_length() - 128
            t = power >> exp2 if exp2 >= 0 else power << -exp2
        else:  # 2^-exp2 / 10^-k lies in (2^127, 2^128)
            exp2 = -127 - power.bit_length()
            t = (1 << -exp2) // power
        return pow10(hi=t >> 64, lo=t & (2**64 - 1), exp2=exp2)

    return (pow10 * len(POW10_K))(*map(entry, POW10_K))


def _ten_to_the_zero(table):
    """A pointer to the entry of 10^0 of a power table, which kgp_format_rows indexes by k."""
    return ctypes.cast(ctypes.addressof(table) - POW10_K.start * ctypes.sizeof(table._type_),
                       ctypes.POINTER(table._type_))


def csv_writer(rows: np.ndarray):
    """write(fh), which writes the 2-d float64 rows to the binary file fh as CSV lines: each value as Python's
    '%.17g' ('nan' for a NaN of either sign), comma-separated, each row CRLF-ended.

    The library is loaded, and on the first call the table of powers of ten
    built, before write is returned.  write formats blocks of rows into one
    buffer of about _BLOCK_BYTES, so its memory does not grow with the rows.
    """
    if not isinstance(rows, np.ndarray) or rows.dtype != float or rows.ndim != 2:
        kind = f"{rows.ndim}-d {rows.dtype}" if isinstance(rows, np.ndarray) else type(rows).__name__
        raise ValueError(f"the CSV formatter needs a 2-d float64 array, not {kind}")
    entry, pow10 = library().kgp_format_rows, _ten_to_the_zero(_powers_of_ten())
    cols = rows.shape[1]
    block = max(1, _BLOCK_BYTES // (cols * _VALUE_BYTES + _ROW_BYTES))

    def write(fh):
        buffer = np.empty(block * (cols * _VALUE_BYTES + _ROW_BYTES), dtype=np.uint8)
        for start in range(0, len(rows), block):
            part = np.ascontiguousarray(rows[start:start + block])
            fh.write(buffer[:entry(part.ctypes.data, len(part), cols, pow10, buffer.ctypes.data)])

    return write


BUILDS = ("plain", "avx2", "avx512f")  # the builds of the stepping loop and the energy form, by index (kgp_pick)

# The known-answer case that a fresh build runs before it is cached (_check): steps kick-drift-kick steps of dt from
# (psi, pi) on 7 nodes dx apart, with one oscillator of u(s) = s^2 - 2 s at node 3 and mass 1, sampled at step 0 and
# after the steps with the seminorm of the nodes [1, 6); the solve at omega from the amplitude 0.7; and a CSV row of
# values that are hard to format.
KNOWN_CASE = {
    "psi": (0j, 0.25 + 0.5j, 0.5 - 0.25j, 0.75 + 0.125j, -0.5 + 0.375j, 0.125 - 0.625j, 0j),
    "pi": (0j, -0.125 + 0.25j, 0.375 + 0j, 0.5j, -0.25 - 0.125j, 0.625 + 0.25j, 0j),
    "dx": 0.25, "dt": 0.125, "steps": 4, "omega": 0.5,
    "row": (5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308, 1e23, 0.1, 1 / 3,
            -0.0, 9007199254740993.0, 1e-7, float("nan"), -float("nan"), float("inf"), -float("inf")),
}
# Its answers as float hex, regenerated from the references by tests/test_passes.py::
# test_the_known_answers_are_the_references: psi and pi after the steps, Re and Im interleaved; the samples' columns
# t, H, Q, the energy norm and the seminorm, each at step 0 and after the steps; and the solve's row.  The CSV row's
# answer is Python's '%.17g'.
KNOWN_ANSWERS = {
    "psi": ("0x0.0p+0", "0x0.0p+0", "0x1.ae8eefa5dc000p-3", "-0x1.40564679c3000p-2", "0x1.5c9ac8559042cp-4",
            "0x1.f0a84b460d0b9p-2", "0x1.f81a186923456p-4", "0x1.2d5e97001f55ap-3", "0x1.a0b2ea0ab2086p-1",
            "-0x1.6a1bfef3e5e8ep-3", "0x1.fd7ffc9770000p-5", "0x1.22a143a31e800p-1", "0x0.0p+0", "0x0.0p+0"),
    "pi": ("0x0.0p+0", "0x0.0p+0", "-0x1.25abfb3b1b67ap-1", "0x1.b65504698b9dcp-1", "-0x1.f33b2ac461c2ep+0",
           "-0x1.4658b33459782p+0", "0x1.11efad3bf8e17p+0", "-0x1.c146673373908p-6", "-0x1.6378a4b8c385cp-1",
           "0x1.1cfbc4a35343fp+1", "0x1.016e6a31b9262p+1", "-0x1.b2debe2474624p-1", "0x0.0p+0", "0x0.0p+0"),
    "samples": ("0x0.0p+0", "0x1.0000000000000p-1", "0x1.15b2000000000p+3", "0x1.06cde2b03d239p+3",
                "-0x1.2c00000000000p-2", "-0x1.2bfffffffffffp-2", "0x1.16f8334644df9p+2", "0x1.0484a8e311e9dp+2",
                "0x1.00ff807f60debp+2", "0x1.eab671ed2935dp+1"),
    "solve": ("0x1.0000000000000p-1", "0x1.bb67ae8584caap-1", "0x1.818753c32b355p-1", "0x0.0p+0",
              "0x1.0000000000000p-49"),
}


def _known_results(lib) -> dict:
    """The known-answer case's steps, samples and solve on lib's picked build, as KNOWN_ANSWERS lays them out."""
    from .model import ModelSpec, OscillatorSpec

    case, structs = KNOWN_CASE, lib.structs
    model = _pack(ModelSpec(1.0, (OscillatorSpec(0.0, (0.0, -2.0, 1.0)),)), structs)
    psi, pi, kick = np.array(case["psi"]), np.array(case["pi"]), np.zeros(7, complex)
    sites, window = (_SIZE * 1)(3), (_SIZE * 2)(1, 6)
    series, traces = np.zeros((5, 2)), np.zeros((2, 2, 1), complex)
    run = structs["kgp_run"](p=psi.ctypes.data, q=pi.ctypes.data, k=kick.ctypes.data, n=psi.size, dx=case["dx"],
                             dt=case["dt"], model=model, sites=ctypes.addressof(sites), every=case["steps"], t0=0.0,
                             nwindows=1, windows=ctypes.addressof(window), rows=2, series=series.ctypes.data,
                             traces=traces.ctypes.data)
    lib.kgp_evolve(ctypes.byref(run), case["steps"])
    rows = ctypes.POINTER(_DOUBLE)()
    lib.kgp_branch(model, case["omega"], -0.0, 1, (_DOUBLE * 2)(0.7, 0.0), ctypes.byref(rows), ctypes.byref(_SIZE()))
    row = rows[:5] if rows else []  # no row where the branch had no memory
    lib.kgp_free(rows)
    return {name: tuple(map(float.hex, values)) for name, values in
            (("psi", psi.view(float)), ("pi", pi.view(float)), ("samples", series.ravel()), ("solve", row))}


def _check(lib):
    """The known-answer case (KNOWN_CASE) on lib, a fresh build: its steps, samples and solve on each build of the
    stepping loop and the energy form that this CPU runs (kgp_pick), and its CSV row.  OSError names the first
    result that differs from KNOWN_ANSWERS, or from Python's '%.17g'.  The widest build is picked again after."""
    failure = "cannot build the compiled passes: the build fails its known-answer check, at {}"
    try:
        for build, name in enumerate(BUILDS):
            if lib.kgp_pick(build) == build:
                found = _known_results(lib)
                for part, answer in KNOWN_ANSWERS.items():
                    if found[part] != answer:
                        raise OSError(failure.format(f"the {name} build's {part}"))
    finally:
        lib.kgp_pick(-1)
    values, table = np.array(KNOWN_CASE["row"]), _power_table(lib.structs["kgp_pow10"])
    text = np.empty(values.size * _VALUE_BYTES + _ROW_BYTES, dtype=np.uint8)
    size = lib.kgp_format_rows(values.ctypes.data, 1, values.size, _ten_to_the_zero(table), text.ctypes.data)
    if text[:size].tobytes() != (",".join("%.17g" % v for v in values.tolist()) + "\r\n").encode():
        raise OSError(failure.format("the CSV row"))
