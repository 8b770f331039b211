"""Exact arithmetic for the Enriques lattice and the component
classification of polarized moduli spaces by profile.

The lattice layer works in a fixed rank-10 basis with integer-only
arithmetic. On top of it sit a brute-force search oracle for profiles, the
closed-form coefficient parametrization with its rewrite algorithm, the
genus-by-genus component enumeration, and cross-checking suites.

Each module declares its public names once, in its own `__all__`; the
package re-exports exactly those names, and its `__all__` is their sorted
union.
"""

from .lattice import *
from .oracle import *
from .fundamental import *
from .components import *
from .verify import *
from . import lattice, oracle, fundamental, components, verify

__version__ = "0.1.0"

__all__ = sorted(
    lattice.__all__ + oracle.__all__ + fundamental.__all__ + components.__all__ + verify.__all__
)
