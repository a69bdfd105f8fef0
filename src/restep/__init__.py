"""Iterative restoration of linearly degraded, noisy signals.

The package walks an observation back to a clean signal in small steps:
each step asks an estimator for its best guess of the clean signal given
the current iterate and the current degradation level t, then moves a
fraction of the way toward that guess.  Exact posterior-mean estimators
for Gaussian-mixture and Gaussian worlds live in :mod:`restep.oracles`;
a small trainable regressor with hand-rolled backprop and Adam lives in
:mod:`restep.regressor`; samplers (including the ODE view of the
noise-free limit) live in :mod:`restep.samplers`; experiment configs,
runs, and CSV/JSON reports live in :mod:`restep.harness`.
"""

from . import degradation, harness, metrics, oracles, regressor, samplers, worlds
from .degradation import *  # noqa: F403
from .harness import *  # noqa: F403
from .metrics import *  # noqa: F403
from .oracles import *  # noqa: F403
from .regressor import *  # noqa: F403
from .samplers import *  # noqa: F403
from .worlds import *  # noqa: F403

__version__ = "0.1.0"

# The public names are each module's __all__; the package adds only its version.
__all__ = ["__version__"] + [
    name
    for module in (degradation, oracles, samplers, regressor, metrics, worlds, harness)
    for name in module.__all__
]
