import inspect
import os
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
    # the stepping loop compiles _passes.c on first use, so an installed package must carry it
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert os.path.dirname(_passes.SOURCE) == os.path.dirname(kgpoint.__file__)
    assert os.path.basename(_passes.SOURCE) in pyproject["tool"]["setuptools"]["package-data"]["kgpoint"]
