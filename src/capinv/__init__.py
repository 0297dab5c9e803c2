"""Capacitor field solver, generative models, and inverse field prediction.

The package re-exports each module's __all__, which is the one list of
that module's public names.
"""

from .fields import *  # noqa: F403
from .network import *  # noqa: F403
from .generative import *  # noqa: F403
from .inverse import *  # noqa: F403
from .experiments import *  # noqa: F403

__version__ = "0.1.0"
