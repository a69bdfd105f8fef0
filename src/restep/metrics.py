"""Distortion and distributional metrics for sampler evaluation.

Point distortion is measured with mean squared error and PSNR.  The
distributional side, which at scale would use learned perceptual metrics,
is covered here by exact proxies: nearest-mode assignment against a known
mixture prior, and moment/Kolmogorov-Smirnov statistics against a known
Gaussian prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import stats

from .degradation import as_state
from .oracles import GaussianMixturePrior

__all__ = [
    "DistributionStats",
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
    psnr = inf.
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
    dists = np.linalg.norm(xs[:, None, :] - prior.modes[None, :, :], axis=2)
    idx = np.argmin(dists, axis=1)
    return idx, dists[np.arange(len(xs)), idx]


@dataclass(frozen=True)
class DistributionStats:
    mean: np.ndarray
    variance: np.ndarray
    ks_vs_normal: Optional[np.ndarray]


def empirical_distribution_stats(samples, ref_mean=None, ref_std=None) -> DistributionStats:
    """Sample mean, unbiased per-coordinate variance, and (optionally) the
    one-sample KS statistic of each coordinate against N(ref_mean, ref_std^2).

    ``samples`` is (n, d) with n >= 2.  The KS block is skipped when no
    reference is supplied.
    """
    samples = as_state(samples, "samples")
    if samples.ndim == 1:
        samples = samples[:, None]
    n, d = samples.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    mean = samples.mean(axis=0)
    variance = samples.var(axis=0, ddof=1)
    ks = None
    if ref_mean is not None or ref_std is not None:
        if ref_mean is None or ref_std is None:
            raise ValueError("supply both ref_mean and ref_std, or neither")
        ref_mean = np.broadcast_to(np.asarray(ref_mean, float), (d,))
        ref_std = np.broadcast_to(np.asarray(ref_std, float), (d,))
        if np.any(ref_std <= 0.0):
            raise ValueError("ref_std must be > 0")
        ks = np.empty(d)
        for j in range(d):
            res = stats.kstest(
                samples[:, j], "norm", args=(ref_mean[j], ref_std[j])
            )
            ks[j] = res.statistic
    return DistributionStats(mean=mean, variance=variance, ks_vs_normal=ks)
