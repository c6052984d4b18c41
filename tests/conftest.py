import numpy as np
import pytest
from hypothesis import settings

# numpy-heavy examples can trip the default per-example deadline under load
settings.register_profile("kgpoint", deadline=None)
settings.load_profile("kgpoint")


@pytest.fixture(scope="session")
def node_values():
    """Seeded complex node values as numpy scalars: 3000 moduli from 1e-3 to 1e3, 200 about where |z|^2
    overflows (1.34e154), 1e160, 1e200, 1e308 and both parts 1.5e308, where abs itself overflows in Python."""
    rng = np.random.default_rng(20)
    moduli = np.concatenate([10.0 ** rng.uniform(-3.0, 3.0, 3000), 10.0 ** rng.uniform(153.8, 154.4, 200),
                             [1e160, 1e200, 1e308]])
    return [*(moduli * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, moduli.size))), np.complex128(1.5e308 + 1.5e308j)]


@pytest.fixture(scope="session", autouse=True)
def compiled_passes():
    """The compiled library, built before the first test, so that no test's clock includes a cold build."""
    from kgpoint import _passes

    return _passes.library()
