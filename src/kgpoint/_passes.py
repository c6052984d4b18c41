"""The stepping loop, compiled from ``_passes.c`` on first use and loaded with ctypes.

The library is built by Python's own C compiler (sysconfig's ``CC``) with
``-O3 -ffp-contract=off -lm``: no fused multiply-add and no reassociation, so
each step keeps numpy's bits, and no ``-march``, so a cached build runs on
any CPU of its architecture.  It is cached in ``$XDG_CACHE_HOME/kgpoint``
(by default ``~/.cache/kgpoint``), or where that is not writable in a
private directory under the temp directory, named by the SHA-256 of the
source and the compile command.  A build is compiled to a temporary name
and renamed into place, so processes that build at once do not race.  A
build that fails raises OSError with a one-line reason.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from functools import cache, partial

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_passes.c")
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_LIBS = ("-lm",)  # after the source, or a linker that drops unneeded libraries drops libm
_POINTER, _SIZE, _DOUBLE = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
_RUN = (_POINTER, _POINTER, _POINTER, _SIZE, _DOUBLE, _DOUBLE, _DOUBLE,
        _SIZE, _POINTER, _POINTER, _POINTER, _DOUBLE, ctypes.c_int, _SIZE)


def _compile_command() -> list[str]:
    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise OSError("cannot build the stepping kernel: Python's build names no C compiler (sysconfig CC)")
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
    raise OSError(f"cannot build the stepping kernel: no private writable cache directory under {base} "
                  f"or {tempfile.gettempdir()}")


def _build(command: list[str], path: str):
    fd, building = tempfile.mkstemp(suffix=".so.partial", dir=os.path.dirname(path))
    os.close(fd)
    try:
        try:
            done = subprocess.run([*command, "-o", building, SOURCE, *_LIBS], capture_output=True, text=True,
                                  errors="replace")
        except OSError as err:
            raise OSError(f"cannot build the stepping kernel: {command[0]}: {err.strerror or err}") from err
        if done.returncode != 0:
            reason = next((line for line in done.stderr.splitlines() if line.strip()), "no message")
            raise OSError(f"cannot build the stepping kernel: {command[0]} exited {done.returncode}: {reason}")
        os.replace(building, path)
    finally:
        if os.path.exists(building):
            os.remove(building)


@cache
def library() -> ctypes.CDLL:
    """The compiled loop, built into the cache unless a build of this source and command is there."""
    command = _compile_command()
    with open(SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read() + b"\0" + shlex.join([*command, *_LIBS]).encode())
    path = os.path.join(_cache_dir(), f"passes-{digest.hexdigest()}.so")
    if not os.path.exists(path):
        _build(command, path)
    lib = ctypes.CDLL(path)
    lib.kgp_run.argtypes, lib.kgp_run.restype = _RUN, None
    return lib


def bind(psi: np.ndarray, pi: np.ndarray, kick: np.ndarray, dt: float, c: float, scale: float,
         nodes, slopes, force_scale: float):
    """The loop over three complex buffers of one length, as one call with its C arguments converted once.

    kick's end nodes must be 0.  nodes are the oscillator nodes, each in 1 ...
    count - 2, and slopes their slope coefficients, low degree first; the
    force at a node is added to the stencil's kick times force_scale.

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
    if len(nodes) != len(slopes):
        raise ValueError(f"{len(nodes)} oscillator nodes but {len(slopes)} slope coefficient lists")
    if not all(1 <= i <= count - 2 for i in nodes):
        raise ValueError(f"oscillator nodes {tuple(nodes)} must lie in 1 ... {count - 2}")
    if not all(len(u) for u in slopes):
        raise ValueError("every oscillator needs at least one slope coefficient")
    sites = np.array(nodes, dtype=np.intp)
    ncoef = np.array([len(u) for u in slopes], dtype=np.intc)
    coef = np.array([v for u in slopes for v in reversed(u)], dtype=float)  # highest degree first
    lib = library()
    # data_as pointers hold a reference to their array
    p, q, k, sites_p, ncoef_p, coef_p = (a.ctypes.data_as(_POINTER) for a in (psi, pi, kick, sites, ncoef, coef))
    return partial(lib.kgp_run, p, q, k, _SIZE(2 * count), _DOUBLE(dt), _DOUBLE(c), _DOUBLE(scale),
                   _SIZE(sites.size), sites_p, ncoef_p, coef_p, _DOUBLE(force_scale))
