"""Distortion and distributional metrics for sampler evaluation.

Point distortion is an ``(mse, psnr)`` pair over a batch.  The
distributional side, which at scale would use learned perceptual metrics,
is covered here by exact proxies: batch nearest-mode assignment against a
known mixture prior, and the Kolmogorov-Smirnov distance from a known
Gaussian prior, computed in closed form over ``scipy.special.ndtr``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .degradation import as_scalar, as_state
from .oracles import GaussianMixturePrior, _mode_distances_sq

__all__ = [
    "distortion_metrics",
    "empirical_distribution_stats",
    "nearest_modes",
]


def distortion_metrics(reference, estimate, peak: float = 1.0) -> tuple[float, float]:
    """``(mse, psnr)``: MSE over all elements and PSNR = 10 log10(peak^2 / mse).

    ``peak`` is the dynamic range of the signal convention in use (2.0 for
    signals living in [-1, 1], for instance).  A zero-error batch reports
    psnr = inf, and one whose squared error overflows to inf psnr = -inf.
    """
    reference = as_state(reference, "reference")
    estimate = as_state(estimate, "estimate", like=reference)
    peak = as_scalar(peak, "peak", positive=True)
    mse = float(np.mean((reference - estimate) ** 2))
    if mse == math.inf:  # the squared error overflowed
        psnr = -math.inf
    else:
        psnr = math.inf if mse == 0.0 else 10.0 * math.log10(peak * peak / mse)
    return mse, psnr


def nearest_modes(xs, prior: GaussianMixturePrior):
    """Index and Euclidean distance of the prior mode closest to each row of
    ``xs`` (a (d,) vector is one row); ties go to the lowest index."""
    xs = as_state(xs, "xs", dim=prior.dim)
    if xs.ndim > 2:
        raise ValueError(f"xs must be (d,) or (n, d), got shape {xs.shape}")
    dists = np.sqrt(_mode_distances_sq(np.atleast_2d(xs), prior.modes))  # np.linalg.norm's bits
    idx = np.argmin(dists, axis=0)
    return idx, dists[idx, np.arange(dists.shape[1])]


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
    cdf = ndtr((np.sort(samples, axis=0) - ref_mean) / ref_std)
    d_plus = np.max(np.arange(1.0, n + 1)[:, None] / n - cdf, axis=0)
    d_minus = np.max(cdf - np.arange(0.0, n)[:, None] / n, axis=0)
    return np.maximum(d_plus, d_minus)
