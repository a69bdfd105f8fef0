"""Synthetic observation worlds and reproducibility plumbing.

A world bundles a prior with a degradation and can draw matched
(clean, degraded) pairs, hand out its ideal estimator, and stream training
data.  Two kinds exist, mirroring the two analytically solvable setups in
:mod:`restep.oracles`:

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
from typing import Optional

import numpy as np

from .degradation import NoiseSchedule
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
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError("seed labels must be non-negative integers")
        return int(part)
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
    raise TypeError(f"seed label must be int or str, got {type(part).__name__}")


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Child generator for (seed, labels...).

    The splitting rule: string labels are hashed to integers (first 8 bytes
    of their SHA-256, big-endian), integer labels pass through, and the
    resulting tuple seeds a ``numpy.random.SeedSequence``.  Hashing is
    stable across platforms and processes, unlike Python's builtin hash.
    """
    entropy = (int(seed), *(_label_to_int(p) for p in labels))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *labels) -> int:
    """A single uint64 drawn from the same sequence :func:`derive_rng` uses;
    handy where an API wants a plain integer seed."""
    entropy = (int(seed), *(_label_to_int(p) for p in labels))
    state = np.random.SeedSequence(entropy).generate_state(1, np.uint64)
    return int(state[0])


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
        span = float(np.ptp(self.prior.modes))
        return span if span > 0.0 else 1.0

    def sample_clean(self, rng, n: int) -> np.ndarray:
        idx = rng.choice(self.prior.n_modes, size=n, p=self.prior.weights)
        return self.prior.modes[idx]

    def degrade(self, rng, x: np.ndarray) -> np.ndarray:
        noise = rng.standard_normal(x.shape)
        return x @ self.degradation.H.T + self.degradation.sigma * noise

    def sample_pairs(self, rng, n: int):
        x = self.sample_clean(rng, n)
        return x, self.degrade(rng, x)

    def pair_stream(self, rng, chunk: int = 256):
        """Endless stream of ``(x, y)`` draws of ``sample_pairs(rng, chunk)``."""
        while True:
            yield self.sample_pairs(rng, chunk)

    def oracle(self, schedule: Optional[NoiseSchedule] = None) -> MixturePosteriorOracle:
        return MixturePosteriorOracle(self.prior, self.degradation, schedule)


@dataclass(frozen=True)
class GaussianWorld:
    """Gaussian prior observed through ``y = x + n``, fully tractable."""

    prior: GaussianPrior
    sigma_n: float

    def __post_init__(self):
        if not np.isfinite(self.sigma_n) or self.sigma_n <= 0.0:
            raise ValueError("sigma_n must be finite and > 0")

    @property
    def dim(self) -> int:
        return self.prior.dim

    @property
    def signal_peak(self) -> float:
        """Dynamic range convention: two prior standard deviations."""
        return 2.0 * self.prior.sigma_c

    def sample_clean(self, rng, n: int) -> np.ndarray:
        return self.prior.c + self.prior.sigma_c * rng.standard_normal((n, self.dim))

    def degrade(self, rng, x: np.ndarray) -> np.ndarray:
        return x + self.sigma_n * rng.standard_normal(x.shape)

    def sample_pairs(self, rng, n: int):
        x = self.sample_clean(rng, n)
        return x, self.degrade(rng, x)

    def pair_stream(self, rng, chunk: int = 256):
        while True:
            yield self.sample_pairs(rng, chunk)

    def oracle(self, schedule: Optional[NoiseSchedule] = None) -> GaussianDenoisingOracle:
        return GaussianDenoisingOracle(self.prior, self.sigma_n, schedule)


class DivergenceError(RuntimeError):
    """An iterate's norm blew past the divergence threshold."""

    def __init__(self, step_index: int, norm: float, baseline: float):
        self.step_index = step_index
        self.norm = norm
        self.baseline = baseline
        super().__init__(
            f"iterate norm {norm:.3g} exceeded {DivergenceGuard.FACTOR:.0e} x "
            f"initial norm {baseline:.3g} at step {step_index}"
        )


class DivergenceGuard:
    """Estimator wrapper that watches the iterates a sampler feeds it.

    Every state a discrete sampler produces is the input of the next
    estimator call, so wrapping the estimator sees the whole trajectory.
    The first call fixes the baseline norm (the t = 1 state); any later
    call whose largest per-sample norm exceeds FACTOR times the baseline
    raises :class:`DivergenceError` with the step index.
    """

    FACTOR = 1e6

    def __init__(self, estimator):
        self.estimator = estimator
        self.calls = 0
        self.baseline = None

    def __call__(self, x_t, t):
        norms = np.linalg.norm(np.atleast_2d(np.asarray(x_t, float)), axis=-1)
        worst = float(np.max(norms))
        if self.baseline is None:
            self.baseline = max(worst, 1e-12)
        elif worst > self.FACTOR * self.baseline:
            raise DivergenceError(self.calls, worst, self.baseline)
        self.calls += 1
        return self.estimator(x_t, t)
