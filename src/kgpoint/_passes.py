"""The stepping loop's field passes, compiled from ``_passes.c`` on first use and loaded with ctypes.

The library is built by Python's own C compiler (sysconfig's ``CC``) with
``-O3 -ffp-contract=off``: no fused multiply-add and no reassociation, so
each pass keeps numpy's bits, and no ``-march``, so a cached build runs on
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
_POINTER, _SIZE, _DOUBLE = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
_SIGNATURES = {
    "kgp_stencil": (_POINTER, _POINTER, _SIZE, _DOUBLE, _DOUBLE),
    "kgp_kick": (_POINTER, _POINTER, _SIZE),
    "kgp_step": (_POINTER, _POINTER, _POINTER, _SIZE, _DOUBLE, _DOUBLE, _DOUBLE, ctypes.c_int),
}


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
            done = subprocess.run([*command, "-o", building, SOURCE], capture_output=True, text=True,
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
    """The compiled passes, built into the cache unless a build of this source and command is there."""
    command = _compile_command()
    with open(SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read() + b"\0" + shlex.join(command).encode())
    path = os.path.join(_cache_dir(), f"passes-{digest.hexdigest()}.so")
    if not os.path.exists(path):
        _build(command, path)
    lib = ctypes.CDLL(path)
    for name, argtypes in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, None
    return lib


def bind(psi: np.ndarray, pi: np.ndarray, kick: np.ndarray, dt: float, c: float, scale: float):
    """The passes over three complex buffers of one length, as calls with their C arguments converted once.

    Returns (stencil(), kick(), steps), steps[h]() the step that applies h
    half kicks first (1 or 2).  The caller keeps the buffers alive while it
    calls them.
    """
    for a in (psi, pi, kick):
        if a.dtype != complex or not a.flags.c_contiguous or not a.flags.writeable or a.shape != psi.shape:
            raise ValueError("the passes need writable contiguous complex buffers of one length")
    lib = library()
    p, q, k = (ctypes.c_void_p(a.ctypes.data) for a in (psi, pi, kick))
    n, dt, c, scale = _SIZE(2 * psi.size), _DOUBLE(dt), _DOUBLE(c), _DOUBLE(scale)
    steps = {h: partial(lib.kgp_step, p, q, k, n, dt, c, scale, ctypes.c_int(h)) for h in (1, 2)}
    return partial(lib.kgp_stencil, p, k, n, c, scale), partial(lib.kgp_kick, q, k, n), steps
