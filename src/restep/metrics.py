"""Distortion and distributional metrics for sampler evaluation.

Point distortion is an ``(mse, psnr)`` pair over a batch.  The
distributional side, which at scale would use learned perceptual metrics,
is covered here by exact proxies: batch nearest-mode assignment against a
known mixture prior, and the Kolmogorov-Smirnov distance from a known
Gaussian prior, computed in closed form over ``_ndtr``, a numpy port of
the cephes normal CDF that ``scipy.special.ndtr`` runs, with its bits.
No run loads scipy; only the tests do, to hold the port to it.
"""

from __future__ import annotations

import math

import numpy as np

from .degradation import as_scalar, as_state
from .oracles import _nearest, _sum_axis

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
        mse = _mean((reference - estimate) ** 2)
    if mse == 0.0:
        return mse, math.inf
    ratio = peak * peak / mse  # 0 or inf where peak^2 under- or overflowed, or mse did
    if 0.0 < ratio < math.inf:
        return mse, 10.0 * math.log10(ratio)
    return mse, 20.0 * math.log10(peak) - 10.0 * math.log10(mse)


def _mean(terms: np.ndarray) -> float:
    """``np.mean(terms)``, also where the sum of finite terms overflows but their mean is a
    float: then the terms are first scaled by a power of two at least their count, which
    moves no bit of the mean."""
    with np.errstate(over="ignore"):
        mean = np.mean(terms)
        if np.isinf(mean) and np.isfinite(terms).all():
            e = np.frexp(terms.size)[1]
            mean = np.ldexp(np.mean(np.ldexp(terms, -e)), e)
    return float(mean)


def nearest_modes(xs, world):
    """Index and Euclidean distance of the mixture ``world``'s mode closest to
    each row of ``xs`` (a (d,) vector is one row), the index by the oracle's
    rule, so ties go to the lowest index.  Distances have ``np.linalg.norm``'s bits wherever
    the squared differences are normal floats: each row's difference is scaled
    by a power of two, which moves no bit there and keeps the rest finite."""
    xs = as_state(xs, "xs", dim=world.dim)
    if xs.ndim > 2:
        raise ValueError(f"xs must be (d,) or (n, d), got shape {xs.shape}")
    rows = np.atleast_2d(xs)
    idx = _nearest(rows, world.modes)[0]
    with np.errstate(over="ignore"):  # a distance beyond the largest float is inf
        diff = np.ascontiguousarray(rows.T) - world.modes.T.take(idx, axis=1)   # (d, n)
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
    with np.errstate(over="ignore"):  # a standardised sample beyond the floats is +-inf
        standard = (np.sort(samples, axis=0) - ref_mean) / ref_std
    cdf = _ndtr(standard)
    d_plus = np.max(np.arange(1.0, n + 1)[:, None] / n - cdf, axis=0)
    d_minus = np.max(cdf - np.arange(0.0, n)[:, None] / n, axis=0)
    return np.maximum(d_plus, d_minus)


# cephes's ndtr, erf and erfc as scipy.special runs them.  The tables are
# highest power first; those cephes evaluates with p1evl carry its leading 1.
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # erfc is 0 where z^2 > MAXLOG
_SQRT1_2 = math.sqrt(0.5)


def _polevl(x, coefs):
    """cephes's Horner rule: a rounded product, then a rounded sum, per term."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _erf(x):
    """cephes's ``erf`` for |x| < 1."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _ndtr(a):
    """``scipy.special.ndtr(a)`` bit for bit: 0.5 + 0.5 erf(a / sqrt2) where
    z = |a| / sqrt2 < sqrt(1/2), else 0.5 erfc(z), reflected for a > 0.  exp is
    libm's, through ``math.exp``, as scipy's is; numpy's differs in the last bit."""
    x = a * _SQRT1_2
    z = np.abs(x)
    z2 = np.square(np.minimum(z, 27.0))  # 27^2 > MAXLOG, and the cap keeps z^2 finite
    mid = z < 1.0
    far = ~mid & (z2 <= _MAXLOG)
    erfc = np.where(np.isnan(z), z, 0.0)  # erfc(z), left 0 where it underflows
    erfc[mid] = 1.0 - _erf(z[mid])
    w, e = z[far], np.fromiter(map(math.exp, (-z2[far]).tolist()), float)
    erfc[far] = np.where(w < 8.0, e * _polevl(w, _P) / _polevl(w, _Q),
                         e * _polevl(w, _R) / _polevl(w, _S))
    y = np.where(x > 0, 1.0 - 0.5 * erfc, 0.5 * erfc)
    near = z < _SQRT1_2
    y[near] = 0.5 + 0.5 * _erf(x[near])
    return y
