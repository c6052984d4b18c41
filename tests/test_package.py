import inspect
import os
import subprocess
import sys
from pathlib import Path

import kgpoint
from kgpoint import _passes, counterexamples, model, simulator, solitary, spectral

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10, where pytest itself depends on tomli
    import tomli as tomllib

MODULES = (model, solitary, simulator, spectral, counterexamples)


def test_the_namespace_is_the_modules_public_lists():
    # each module's __all__ is the one list of its public names; the package re-exports exactly those
    exported = {name: getattr(module, name) for module in MODULES for name in module.__all__}
    for name, value in exported.items():
        assert getattr(kgpoint, name) is value, name
    others = {name for name in vars(kgpoint) if not name.startswith("_")} - set(exported)
    assert others and all(inspect.ismodule(getattr(kgpoint, name)) for name in others), sorted(others)


def test_the_kernel_source_ships_as_package_data():
    # the stepping loop and the profile solve compile the sources and their header on first use, so an installed
    # package must carry each of them
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    shipped = pyproject["tool"]["setuptools"]["package-data"]["kgpoint"]
    for path in (*_passes.SOURCES, _passes.HEADER):
        assert os.path.dirname(path) == os.path.dirname(kgpoint.__file__)
        assert os.path.basename(path) in shipped, path


IMPORT_FACTS = """
import sys
import numpy
numpy_loads_ctypes = "ctypes" in sys.modules  # numpy 2's numpy._core._internal imports it
import kgpoint
import kgpoint.io
loaded = [name for name in sys.modules if name.startswith("kgpoint")]
assert "kgpoint.io" in loaded and "kgpoint._passes" not in loaded, loaded
assert ("ctypes" in sys.modules) == numpy_loads_ctypes
assert not any("ctypes" in vars(sys.modules[name]) for name in loaded)
assert "subprocess" not in sys.modules
model = kgpoint.ModelSpec(1.0, (kgpoint.OscillatorSpec(0.0, (0.0, -2.0, 1.0)),))
kgpoint.solve_profile(model, 0.5, [0.7])  # loads the library from the warm cache
assert "kgpoint._passes" in sys.modules
assert "subprocess" not in sys.modules
from kgpoint import _passes
assert _passes._powers_of_ten.cache_info().currsize == 0  # the power table waits for the first CSV write
import tempfile
with tempfile.TemporaryDirectory() as tmp:
    kgpoint.io.write_csv(tmp + "/floats.csv", ["x"], numpy.ones((2, 1)))
    assert _passes._powers_of_ten.cache_info().currsize == 1
"""

# the command line loads neither the library nor the process pool, which only simulate --parallel K > 1 imports
# (its multiprocessing imports logging and subprocess)
CLI_IMPORT_FACTS = """
import sys
import numpy
numpy_loads_ctypes = "ctypes" in sys.modules
import kgpoint.cli
loaded = [name for name in sys.modules if name.startswith("kgpoint")]
assert "kgpoint.io" in loaded and "kgpoint._passes" not in loaded, loaded
assert ("ctypes" in sys.modules) == numpy_loads_ctypes
assert not any("ctypes" in vars(sys.modules[name]) for name in loaded)
pool = [name for name in ("subprocess", "multiprocessing", "concurrent.futures.process") if name in sys.modules]
assert not pool, pool
"""


def test_importing_the_package_loads_no_library_and_a_warm_load_no_subprocess():
    # a setup that solves one profile pays for the library's load, but never for the compiler machinery, and
    # the table of powers of ten is built on the first float write, outside any setup
    _passes.library()  # the cache is warm
    _run_fresh(IMPORT_FACTS)


def test_importing_the_command_line_loads_no_library():
    _run_fresh(CLI_IMPORT_FACTS)


def _run_fresh(script):
    src = str(Path(kgpoint.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
