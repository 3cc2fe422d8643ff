"""Monte Carlo and closed-form analytics for constant-product market making.

The package measures what a passive liquidity position loses to price
discovery: the endpoint (holding) loss, the path-accumulated rebalancing
loss, the arbitrage volume that carries both, and how a proportional fee
reshapes them.  Everything is seed-reproducible down to the individual run.
"""

from . import analytics, errors, harness, presets, stats, stochastic
from .analytics import *  # noqa: F403
from .errors import *  # noqa: F403
from .harness import *  # noqa: F403
from .presets import *  # noqa: F403
from .stats import *  # noqa: F403
from .stochastic import *  # noqa: F403

__version__ = "0.5.0"

# each module's __all__ is the one declaration of its public names
__all__ = [
    "__version__",
    *stochastic.__all__,
    *harness.__all__,
    *analytics.__all__,
    *presets.__all__,
    *stats.__all__,
    *errors.__all__,
]
