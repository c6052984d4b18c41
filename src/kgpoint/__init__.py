"""Numerical laboratory for a 1D Klein-Gordon field coupled to point oscillators.

The package namespace holds the public names (each module's ``__all__``) of
the five analysis modules; ``config``, ``io`` and ``cli`` are its submodules.
"""

from .model import *  # noqa: F403
from .solitary import *  # noqa: F403
from .simulator import *  # noqa: F403
from .spectral import *  # noqa: F403
from .counterexamples import *  # noqa: F403

__version__ = "0.1.0"
