import inspect

import kgpoint
from kgpoint import counterexamples, model, simulator, solitary, spectral

MODULES = (model, solitary, simulator, spectral, counterexamples)


def test_the_namespace_is_the_modules_public_lists():
    # each module's __all__ is the one list of its public names; the package re-exports exactly those
    exported = {name: getattr(module, name) for module in MODULES for name in module.__all__}
    for name, value in exported.items():
        assert getattr(kgpoint, name) is value, name
    others = {name for name in vars(kgpoint) if not name.startswith("_")} - set(exported)
    assert others and all(inspect.ismodule(getattr(kgpoint, name)) for name in others), sorted(others)
