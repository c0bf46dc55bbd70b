"""Thermodynamic formalism for 1-D non-uniformly expanding maps.

Induced full-branch Markov schemes, the pressure equation for level
counts, maximal-entropy and Gibbs weights, Kac/Abramov projections,
pressure curves with phase-transition scans, and the appendix
inequality oracles.  The package exports each module's `__all__`.
"""

__version__ = "0.1.0"

from . import analysis, errors, inducing, maps, thermo, zooming
from .analysis import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .inducing import *  # noqa: F401,F403
from .maps import *  # noqa: F401,F403
from .thermo import *  # noqa: F401,F403
from .zooming import *  # noqa: F401,F403

__all__ = [name for mod in (errors, maps, zooming, inducing, thermo, analysis) for name in mod.__all__]
