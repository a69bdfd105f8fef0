"""Synthetic observation worlds and reproducibility plumbing.

A world bundles a prior with a degradation.  ``sample_pairs`` is its one
draw of matched (clean, degraded) pairs: the clean signals first, then the
observation noise.  It also hands out its ideal estimator and streams
training data.  Two kinds exist, mirroring the two analytically solvable
setups in :mod:`restep.oracles`:

* :class:`MixtureWorld` - discrete modes, observed through ``y = H x + n``.
* :class:`GaussianWorld` - Gaussian prior, observed through ``y = x + n``.

Randomness policy: every consumer receives an explicit ``numpy`` generator
derived from a master seed by :func:`derive_rng`.  The rule is documented
there and is the only seed-splitting mechanism the package uses, so any
reported (seed, label...) tuple reproduces its stream exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .degradation import ConstantSchedule, NoiseSchedule, as_count, as_scalar
from .oracles import (
    GaussianDenoisingOracle,
    GaussianMixturePrior,
    GaussianPrior,
    LinearDegradation,
    MixturePosteriorOracle,
)

__all__ = [
    "DivergenceError",
    "DivergenceGuard",
    "GaussianWorld",
    "MixtureWorld",
    "derive_rng",
    "derive_seed",
]


def _label_to_int(part) -> int:
    if isinstance(part, (int, np.integer)) and not isinstance(part, bool):
        if part < 0:
            raise ValueError("seed labels must be non-negative integers")
        return int(part)
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
    raise TypeError(f"seed label must be int or str, got {type(part).__name__}")


def _sequence(seed: int, labels) -> np.random.SeedSequence:
    return np.random.SeedSequence((as_count(seed, "seed", 0), *map(_label_to_int, labels)))


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Child generator for (seed, labels...).

    The splitting rule: string labels are hashed to integers (first 8 bytes
    of their SHA-256, big-endian), integer labels pass through, and the
    resulting tuple seeds a ``numpy.random.SeedSequence``.  Hashing is
    stable across platforms and processes, unlike Python's builtin hash.
    The seed is an integer >= 0 and a label an integer >= 0 or a string;
    a bool is neither.  With no labels this is ``default_rng(seed)``.
    """
    return np.random.default_rng(_sequence(seed, labels))


def derive_seed(seed: int, *labels) -> int:
    """A single uint64 drawn from the same sequence :func:`derive_rng` uses;
    handy where an API wants a plain integer seed."""
    return int(_sequence(seed, labels).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class MixtureWorld:
    """Discrete multimodal prior observed through ``y = H x + n``.

    It forms the two tables its draws and closed form read once, outside ``==`` and
    ``repr``: ``degraded_modes``, the (m, d) table ``D = C H^T`` whose entries may overflow
    to +-inf (or nan, inf - inf) without a warning, and ``log_weights`` (-inf at w = 0)."""

    prior: GaussianMixturePrior
    degradation: LinearDegradation
    degraded_modes: np.ndarray = field(init=False, repr=False, compare=False)
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.prior.dim != self.degradation.H.shape[0]:
            raise ValueError("prior and degradation dimensions differ")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            object.__setattr__(self, "degraded_modes", self.prior.modes @ self.degradation.H.T)
            object.__setattr__(self, "log_weights", np.log(self.prior.weights))

    @property
    def dim(self) -> int:
        return self.prior.dim

    @property
    def signal_peak(self) -> float:
        """Dynamic range for PSNR: the span of the mode coordinates
        (falling back to 1.0 for a degenerate single-point prior)."""
        with np.errstate(over="ignore"):  # an overflowed span is an inf peak
            span = float(np.ptp(self.prior.modes))
        return span if span > 0.0 else 1.0

    def sample_pairs(self, rng, n: int):
        """``n`` mode draws ``C[idx]`` and observations ``D[idx] + sigma n``."""
        idx = rng.choice(self.prior.n_modes, size=n, p=self.prior.weights)
        with np.errstate(over="ignore"):  # an overflowed y is a non-finite start, flagged
            x = self.prior.modes.take(idx, 0)  # take is ~10x faster than modes[idx]
            y = self.degraded_modes.take(idx, 0)
            return x, y + self.degradation.sigma * rng.standard_normal(y.shape)

    def pair_stream(self, rng):
        """Endless stream of ``(x, y)`` draws of ``sample_pairs(rng, 256)``."""
        while True:
            yield self.sample_pairs(rng, 256)

    def oracle(self, schedule: NoiseSchedule = ConstantSchedule(0.0)) -> MixturePosteriorOracle:
        return MixturePosteriorOracle(self, schedule)


@dataclass(frozen=True)
class GaussianWorld:
    """Gaussian prior observed through ``y = x + n``, fully tractable."""

    prior: GaussianPrior
    sigma_n: float

    def __post_init__(self):
        object.__setattr__(self, "sigma_n", as_scalar(self.sigma_n, "sigma_n", positive=True))

    @property
    def dim(self) -> int:
        return self.prior.dim

    @property
    def signal_peak(self) -> float:
        """Dynamic range convention: two prior standard deviations."""
        return 2.0 * self.prior.sigma_c

    def sample_pairs(self, rng, n: int):
        x = self.prior.c + self.prior.sigma_c * rng.standard_normal((n, self.dim))
        return x, x + self.sigma_n * rng.standard_normal(x.shape)

    def pair_stream(self, rng):
        while True:
            yield self.sample_pairs(rng, 256)

    def oracle(self, schedule: NoiseSchedule = ConstantSchedule(0.0)) -> GaussianDenoisingOracle:
        return GaussianDenoisingOracle(self, schedule)


class DivergenceError(RuntimeError):
    """A run went numerically wrong at ``step_index``: a sampler step at time
    ``t`` (a blown-up iterate, or a non-finite start, estimate or iterate) or
    a training step, ``t`` None (a non-finite pair or loss); see ``what``."""

    def __init__(self, step_index: int, t, what: str):
        super().__init__(step_index, t, what)  # the args rebuild it after pickling
        self.step_index, self.t, self.what = step_index, t, what

    def __str__(self):
        where = "" if self.t is None else f" (t = {self.t:.6g})"
        return f"{self.what} at step {self.step_index}{where}"


def _check_finite(values, step: int, t, what: str) -> np.ndarray:
    """``values`` as a float64 array, or a :class:`DivergenceError` at
    ``step`` and ``t`` saying the ``what`` is non-finite."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise DivergenceError(step, t, f"non-finite {what}")
    return values


class DivergenceGuard:
    """Estimator wrapper that watches the iterates a sampler feeds it.

    Every state a discrete sampler produces but its output is the input of
    the next estimator call, which the wrapper sees; the caller passes the
    output to :meth:`check`.  A state's norm is its largest absolute entry,
    which never overflows and is within a factor sqrt(d) of its largest row's
    Euclidean norm.  The first call fixes the baseline norm: the largest of
    the t = 1 state's, of its estimate's and of ``floor``, a scale the run may
    reach legitimately, so a start at 0 does not make any step away from it a
    blow-up.  A non-finite state, and a later state whose norm exceeds FACTOR
    times the baseline, raise :class:`DivergenceError` at step index = calls
    so far (N at output); a non-finite first estimate raises at its own call's
    step, as the samplers' estimate check does, before it could set the baseline.
    """

    FACTOR = 1e6

    def __init__(self, estimator, floor: float):
        self.estimator = estimator
        self.floor = floor
        self.calls = 0
        self.baseline = None

    def check(self, x_t, t) -> float:
        """The norm of ``x_t``, or the DivergenceError of a non-finite or blown-up state."""
        worst = float(np.abs(x_t).max(initial=0.0))
        if not math.isfinite(worst):  # a nan baseline would pass every later state
            raise DivergenceError(self.calls, t, "non-finite state")
        if self.baseline is not None and worst > self.FACTOR * self.baseline:
            raise DivergenceError(self.calls, t, f"iterate norm {worst:.3g} exceeded "
                                  f"{self.FACTOR:.0e} x initial norm {self.baseline:.3g}")
        return worst

    def __call__(self, x_t, t):
        worst = self.check(x_t, t)
        self.calls += 1
        estimate = self.estimator(x_t, t)
        if self.baseline is None:
            top = float(np.abs(estimate).max(initial=0.0))
            if not math.isfinite(top):  # an inf baseline would pass every later state
                raise DivergenceError(self.calls - 1, t, "non-finite estimate")
            self.baseline = max(worst, top, self.floor, 1e-12)
        return estimate
