"""Distortion and distributional metrics for sampler evaluation.

Point distortion is an ``(mse, psnr)`` pair over a batch.  The
distributional side, which at scale would use learned perceptual metrics,
is covered here by exact proxies: batch nearest-mode assignment against a
known mixture prior, and the Kolmogorov-Smirnov distance from a known
Gaussian prior, computed in closed form over ``scipy.special.ndtr``.

scipy is imported at the first KS call, not with this module.  Only a
Gaussian-world batch has a KS column (``sweep_steps`` in its default world;
``gauss1d`` restores a single probe), so ``import restep`` needs numpy
alone and a mixture-world run never loads scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .degradation import as_scalar, as_state
from .oracles import GaussianMixturePrior, _nearest, _sum_axis

__all__ = [
    "distortion_metrics",
    "empirical_distribution_stats",
    "nearest_modes",
]


def distortion_metrics(reference, estimate, peak: float = 1.0) -> tuple[float, float]:
    """``(mse, psnr)``: MSE over all elements and PSNR = 10 log10(peak^2 / mse).

    ``peak`` is the dynamic range of the signal convention in use (2.0 for
    signals in [-1, 1]).  A zero error gives psnr = inf, an overflowed one
    -inf, and where peak^2 / mse leaves the floats the logs are taken apart.
    """
    reference = as_state(reference, "reference")
    estimate = as_state(estimate, "estimate", like=reference)
    peak = as_scalar(peak, "peak", positive=True)
    with np.errstate(over="ignore"):  # an overflowed error is an inf mse
        mse = float(np.mean((reference - estimate) ** 2))
    if mse == 0.0:
        return mse, math.inf
    ratio = peak * peak / mse  # 0 or inf where peak^2 under- or overflowed, or mse did
    if 0.0 < ratio < math.inf:
        return mse, 10.0 * math.log10(ratio)
    return mse, 20.0 * math.log10(peak) - 10.0 * math.log10(mse)


def nearest_modes(xs, prior: GaussianMixturePrior):
    """Index and Euclidean distance of the prior mode closest to each row of
    ``xs`` (a (d,) vector is one row), the index by the oracle's rule, so ties
    go to the lowest index.  Distances have ``np.linalg.norm``'s bits wherever
    the squared differences are normal floats: each row's difference is scaled
    by a power of two, which moves no bit there and keeps the rest finite."""
    xs = as_state(xs, "xs", dim=prior.dim)
    if xs.ndim > 2:
        raise ValueError(f"xs must be (d,) or (n, d), got shape {xs.shape}")
    rows = np.atleast_2d(xs)
    idx = _nearest(rows, prior.modes)[0]
    with np.errstate(over="ignore"):  # a distance beyond the largest float is inf
        diff = np.ascontiguousarray(rows.T) - prior.modes.T.take(idx, axis=1)   # (d, n)
        e = np.frexp(np.max(np.abs(diff), axis=0))[1]
        return idx, np.ldexp(np.sqrt(_sum_axis(np.square(np.ldexp(diff, -e)))), e)


def empirical_distribution_stats(samples, ref_mean, ref_std) -> np.ndarray:
    """Per-coordinate one-sample KS statistic of ``samples`` against
    N(ref_mean, ref_std^2), as a (d,) array; ``ref_mean`` is a scalar or a
    (d,) vector, ``ref_std`` a scalar.

    ``samples`` is (n, d) with n >= 2; a 1-d array is one coordinate.  This
    is scipy's ``kstest(col, "norm", args=(m, s)).statistic`` term for term,
    for all columns at once and without the p-value.
    """
    samples = as_state(samples, "samples")
    if samples.ndim == 1:
        samples = samples[:, None]
    n, d = samples.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    ref_mean = as_state(np.broadcast_to(ref_mean, (d,)), "ref_mean")
    ref_std = as_scalar(ref_std, "ref_std", positive=True)
    from scipy.special import ndtr  # the first KS call loads scipy, not the import

    cdf = ndtr((np.sort(samples, axis=0) - ref_mean) / ref_std)
    d_plus = np.max(np.arange(1.0, n + 1)[:, None] / n - cdf, axis=0)
    d_minus = np.max(cdf - np.arange(0.0, n)[:, None] / n, axis=0)
    return np.maximum(d_plus, d_minus)
