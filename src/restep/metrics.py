"""Distortion and distributional metrics for sampler evaluation.

Point distortion is measured with mean squared error and PSNR.  The
distributional side, which at scale would use learned perceptual metrics,
is covered here by exact proxies: nearest-mode assignment against a known
mixture prior, and the Kolmogorov-Smirnov distance from a known Gaussian
prior, computed in closed form over ``scipy.special.ndtr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .degradation import as_state
from .oracles import GaussianMixturePrior, _sum_last

__all__ = [
    "MetricReport",
    "distortion_metrics",
    "empirical_distribution_stats",
    "nearest_mode",
    "nearest_modes",
]


@dataclass(frozen=True)
class MetricReport:
    mse: float
    psnr: float


def distortion_metrics(reference, estimate, peak: float = 1.0) -> MetricReport:
    """MSE over all elements plus PSNR = 10 log10(peak^2 / mse).

    ``peak`` is the dynamic range of the signal convention in use (2.0 for
    signals living in [-1, 1], for instance).  A zero-error batch reports
    psnr = inf, and one whose squared error overflows to inf psnr = -inf.
    """
    reference = as_state(reference, "reference")
    estimate = as_state(estimate, "estimate")
    if reference.shape != estimate.shape:
        raise ValueError(
            f"shape mismatch: {reference.shape} vs {estimate.shape}"
        )
    if not np.isfinite(peak) or peak <= 0.0:
        raise ValueError("peak must be finite and > 0")
    mse = float(np.mean((reference - estimate) ** 2))
    if mse == math.inf:  # the squared error overflowed
        psnr = -math.inf
    else:
        psnr = math.inf if mse == 0.0 else 10.0 * math.log10(peak * peak / mse)
    return MetricReport(mse=mse, psnr=psnr)


def nearest_mode(x, prior: GaussianMixturePrior):
    """Index and Euclidean distance of the prior mode closest to ``x``.

    Ties go to the lowest index (np.argmin's convention).
    """
    x = as_state(x, "x")
    if x.ndim != 1:
        raise ValueError("nearest_mode expects a single (d,) vector")
    dists = np.linalg.norm(prior.modes - x, axis=1)
    idx = int(np.argmin(dists))
    return idx, float(dists[idx])


def nearest_modes(xs, prior: GaussianMixturePrior):
    """Batch version of :func:`nearest_mode`: arrays of indices, distances."""
    xs = as_state(xs, "xs")
    if xs.ndim == 1:
        xs = xs[None, :]
    diff = xs[:, None, :] - prior.modes
    diff *= diff
    dists = np.sqrt(_sum_last(diff))  # np.linalg.norm(diff, axis=2), bit for bit
    idx = np.argmin(dists, axis=1)
    return idx, dists[np.arange(len(xs)), idx]


def empirical_distribution_stats(samples, ref_mean, ref_std) -> np.ndarray:
    """Per-coordinate one-sample KS statistic of ``samples`` against
    N(ref_mean, ref_std^2), as a (d,) array.

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
    ref_mean = np.broadcast_to(np.asarray(ref_mean, float), (d,))
    ref_std = np.broadcast_to(np.asarray(ref_std, float), (d,))
    if np.any(ref_std <= 0.0):
        raise ValueError("ref_std must be > 0")
    cdf = ndtr((np.sort(samples, axis=0) - ref_mean) / ref_std)
    d_plus = np.max(np.arange(1.0, n + 1)[:, None] / n - cdf, axis=0)
    d_minus = np.max(cdf - np.arange(0.0, n)[:, None] / n, axis=0)
    return np.maximum(d_plus, d_minus)
