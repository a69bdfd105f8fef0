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
from dataclasses import dataclass

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
    """Discrete multimodal prior observed through ``y = H x + n``."""

    prior: GaussianMixturePrior
    degradation: LinearDegradation

    def __post_init__(self):
        if self.prior.dim != self.degradation.H.shape[0]:
            raise ValueError("prior and degradation dimensions differ")

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
        """``n`` clean mode draws ``x`` and their observations ``y``."""
        x = self.prior.modes[rng.choice(self.prior.n_modes, size=n, p=self.prior.weights)]
        noise = rng.standard_normal(x.shape)
        return x, x @ self.degradation.H.T + self.degradation.sigma * noise

    def pair_stream(self, rng, chunk: int = 256):
        """Endless stream of ``(x, y)`` draws of ``sample_pairs(rng, chunk)``."""
        while True:
            yield self.sample_pairs(rng, chunk)

    def oracle(self, schedule: NoiseSchedule = ConstantSchedule(0.0)) -> MixturePosteriorOracle:
        return MixturePosteriorOracle(self.prior, self.degradation, schedule)


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

    def pair_stream(self, rng, chunk: int = 256):
        while True:
            yield self.sample_pairs(rng, chunk)

    def oracle(self, schedule: NoiseSchedule = ConstantSchedule(0.0)) -> GaussianDenoisingOracle:
        return GaussianDenoisingOracle(self.prior, self.sigma_n, schedule)


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

    Every state a discrete sampler produces is the input of the next
    estimator call, so wrapping the estimator sees the whole trajectory.
    A state's norm here is its largest absolute entry, which never overflows
    and is within a factor sqrt(d) of its largest row's Euclidean norm.  The
    first call fixes the baseline norm: the largest of the t = 1 state's, of
    its estimate's and of ``floor``, a scale the run may reach legitimately, so
    a start at 0 does not make any step away from it a blow-up.  Any later call
    whose state's norm exceeds FACTOR times the baseline raises
    :class:`DivergenceError` with the step index.
    """

    FACTOR = 1e6

    def __init__(self, estimator, floor: float):
        self.estimator = estimator
        self.floor = floor
        self.calls = 0
        self.baseline = None

    def __call__(self, x_t, t):
        worst = float(np.abs(x_t).max())
        if self.baseline is not None and worst > self.FACTOR * self.baseline:
            raise DivergenceError(self.calls, t, f"iterate norm {worst:.3g} exceeded "
                                  f"{self.FACTOR:.0e} x initial norm {self.baseline:.3g}")
        self.calls += 1
        estimate = self.estimator(x_t, t)
        if self.baseline is None:
            self.baseline = max(worst, float(np.abs(estimate).max()), self.floor, 1e-12)
        return estimate
