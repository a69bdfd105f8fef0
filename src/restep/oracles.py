"""Closed-form posterior means for the two solvable worlds.

Both worlds observe ``y = H x + n`` with ``n ~ N(0, sigma^2 I)`` and embed
the pair in the interpolation ``x_t = (1 - t) x + t y``.  Substituting the
observation model gives

    x_t = H_t x + t * n,    H_t = (1 - t) I + t H,    sigma_t = t * sigma,

so conditioned on ``x`` the intermediate state is Gaussian with mean
``H_t x`` and std ``sigma_t`` per coordinate.  For a discrete mixture
prior over modes ``c_i`` with weights ``w_i`` the posterior mean of the
clean signal is the kernel-weighted average

    E[x | x_t] = sum_i c_i w_i G(u_i) / sum_i w_i G(u_i),
    u_i = (x_t - H_t c_i) / sigma_t,   G(u) = exp(-||u||^2 / 2),

and for a Gaussian prior ``N(c, sigma_c^2 I)`` (with ``H = I``) everything
stays Gaussian and is available in closed form, including the whole
reverse-time trajectory.  These forms double as ideal estimators and as
ground truth for the samplers and the trained regressor.

The mixture posterior runs mode-major: a batch of n states against m
modes in d dimensions is held as d contiguous (m, n) blocks, one per
coordinate and filled from ``x_t``'s columns, so every elementwise step runs
along the n rows; broadcasting ``x_t[..., None, :] - centers`` instead runs
n * m inner loops of length d.  The squared norms (over d) and the
normaliser (over m) are sums over the first, short axis of terms that are
never -0.0, and :func:`_sum_axis` gives them the bits of ``np.sum`` over that
axis laid out last: below 8 terms numpy adds left to right from +0.0, which
changes no such term, so the helper adds whole slices in place from the first
two; from 8 terms up it calls ``np.sum`` on a copy with the axis last.  The
final product takes the weights as a C-ordered (n, m) copy, because matmul
chooses its kernel by memory layout and a transposed view gives different
last bits.  Far from every mode, and at sigma_t = 0, the weights come from
:func:`_nearest`, the one rule for "which centre is nearest", shared by metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .degradation import (
    ConstantSchedule,
    NoiseSchedule,
    _fields_eq,
    as_scalar,
    as_state,
    as_time,
    schedule_epsilon,
)

__all__ = [
    "GaussianDenoisingOracle",
    "GaussianMixturePrior",
    "GaussianPrior",
    "LinearDegradation",
    "MixturePosteriorOracle",
    "blended_operator",
    "gaussian_flow_trajectory",
    "gaussian_posterior_mean",
    "mixture_posterior_mean",
    "posterior_mean_at_s",
]

# Anything mapping (x_t, t) -> estimate of the clean signal: the analytic
# oracles below and the trained regressor all satisfy this.
Estimator = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class GaussianMixturePrior:
    """Discrete prior: point masses at ``modes`` with the given weights.

    Parameters
    ----------
    modes : array_like, shape (m, d)
        Mode locations, one row per mode.
    weights : array_like, shape (m,)
        Non-negative weights summing to 1 (within 1e-12).
    """

    modes: np.ndarray
    weights: np.ndarray
    __eq__ = _fields_eq

    def __post_init__(self):
        modes = as_state(np.atleast_2d(self.modes), "modes")
        if modes.ndim != 2 or 0 in modes.shape:
            raise ValueError("modes must be a non-empty (m, d) array")
        weights = as_state(self.weights, "weights", like=modes[:, 0])  # one per mode
        if np.any(weights < 0.0):
            raise ValueError("weights must be >= 0")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.modes.shape[1]

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    @cached_property
    def log_weights(self) -> np.ndarray:
        """``log(weights)`` (-inf at w = 0), taken once; not in ``==``, ``repr`` or pickles."""
        with np.errstate(divide="ignore"):
            return np.log(self.weights)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "log_weights"}


@dataclass(frozen=True)
class LinearDegradation:
    """Square observation operator ``H`` plus noise level ``sigma``.

    Rectangular observations are emulated with zero rows so the state
    dimension stays the same along a trajectory (e.g. H = [[1, 0], [0, 0]]
    keeps only the first coordinate).
    """

    H: np.ndarray
    sigma: float
    __eq__ = _fields_eq

    def __post_init__(self):
        H = as_state(np.atleast_2d(self.H), "H")
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("H must be square")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "sigma", as_scalar(self.sigma, "sigma"))


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian prior N(c, sigma_c^2 I) for the fully tractable world."""

    c: np.ndarray
    sigma_c: float
    __eq__ = _fields_eq

    def __post_init__(self):
        c = as_state(np.atleast_1d(self.c), "c")
        if c.ndim != 1:
            raise ValueError("c must be a vector")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "sigma_c", as_scalar(self.sigma_c, "sigma_c", positive=True))

    @property
    def dim(self) -> int:
        return self.c.shape[0]


# numpy's pairwise summation adds fewer terms than this left to right.
_SHORT_AXIS = 8


def _sum_axis(a: np.ndarray):
    """The sum over the first axis with the bits of ``np.sum`` over a C-ordered copy with
    that axis last, unless 2 to 7 terms are all -0.0 (-0.0, not 0.0): below ``_SHORT_AXIS``
    terms numpy adds left to right from +0.0, and this adds in place from ``a0 + a1``."""
    n = a.shape[0]
    if not 0 < n < _SHORT_AXIS:
        return np.sum(np.ascontiguousarray(np.moveaxis(a, 0, -1)), axis=-1)
    out = a[0] + (a[1] if n > 1 else 0.0)
    for j in range(2, n):
        out += a[j]
    return out


def _mode_distances_sq(x: np.ndarray, centers: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The (m, n) block ``||(x_j - centers_i) / scale||^2`` for the n rows of ``x`` (n, d)
    and m ``centers`` (m, d), filled from ``x``'s columns and summed by :func:`_sum_axis`."""
    u = np.empty((x.shape[1], centers.shape[0], x.shape[0]))
    for j in range(x.shape[1]):
        np.subtract(x[:, j], centers[:, j, None], out=u[j])
    u /= scale
    u *= u
    return _sum_axis(u)


def _nearest(x: np.ndarray, centers: np.ndarray):
    """``(r, gaps, e)`` for the n rows of ``x`` (n, d) and m ``centers`` (m, d): each row's
    nearest centre ``r``, ties to the lowest index, and the (m, n) gaps (d_r^2 - d_i^2) / 2
    = (C_i - C_r) . (x - (C_i + C_r) / 2) = gaps * 2^e, 0 at ``r``, else at most 0.  No
    ||C||^2 cancels and each row has its own power of two, so a gap rounds relative to
    |C_i - C_r| (|x| + |C_i| + |C_r|) unless the centres span 2^950.  The pick by squared
    distances (capped at 2^1000) moves to the largest positive gap from it until it stands."""
    xt, ct = np.ascontiguousarray(x.T), np.ascontiguousarray(centers.T)  # (d, n), (d, m)
    e_c = np.frexp(np.max(np.abs(ct)))[1]
    # each row's power of two, or 2^-1000 of the centres' where that is larger
    e = np.frexp(np.maximum(np.max(np.abs(xt), axis=0), np.ldexp(1.0, e_c - 1000)))[1]
    xs, own = np.ldexp(xt, -e), np.ldexp(ct[:, :, None], -e)            # (d, n), (d, m, n)
    r = np.argmin(_sum_axis(np.square(np.minimum(np.abs(xs[:, None] - own), 2.0**500))), axis=0)
    c, x2, rows = np.ldexp(ct, -e_c), (xs + xs)[:, None], np.arange(len(x))
    for _ in range(len(centers)):  # a pick still moving after m passes is within a tie
        gaps = _sum_axis((c[:, :, None] - c[:, None, r]) * (x2 - (own + own[:, None, r, rows])))
        pick = np.where(np.max(gaps, axis=0) > 0.0, np.argmax(gaps, axis=0), r)
        if (pick == r).all():
            break
        r = pick
    return r, np.minimum(gaps, 0.0), e + e_c - 1


# A row whose every log term lies below -_FAR_LOG = -(2^16)^2 / 2 is far
# from every mode; see mixture_posterior_mean.
_FAR_LOG = 2.0**31


def _far_field_weights(x: np.ndarray, centers: np.ndarray, log_w: np.ndarray,
                       sigma_t: float) -> np.ndarray:
    """The (m, n) posterior weights of the n rows of ``x`` from the log terms
    gap_i / sigma_t^2 + log w_i of the positive-weight modes, with the gaps of
    :func:`_nearest`, put back with their powers of two (exact, or -inf: a weight
    of 0).  At sigma_t = 0 the nearest centres share the weight by w_i."""
    live = log_w > -np.inf
    _, gaps, e = _nearest(x, centers[live])
    # at sigma_t = 0, an exponent past every float's sends each gap below 0 to -inf
    m_s, e_s = np.frexp(sigma_t) if sigma_t > 0.0 else (0.5, -2**14)
    rel = np.full((len(centers), len(x)), -np.inf)
    rel[live] = np.ldexp(gaps / (m_s * m_s), e - 2 * e_s) + log_w[live, None]
    rel -= np.max(rel, axis=0)
    np.exp(rel, out=rel)
    rel /= np.sum(rel, axis=0)
    return rel


def blended_operator(deg: LinearDegradation, t: float) -> np.ndarray:
    """The interpolated operator ``H_t = (1 - t) I + t H``."""
    t = as_time(t)
    d = deg.H.shape[0]
    return (1.0 - t) * np.eye(d) + t * deg.H


def mixture_posterior_mean(prior: GaussianMixturePrior, deg: LinearDegradation,
                           x_t, t, extra_noise_std: float = 0.0) -> np.ndarray:
    """Posterior mean E[x | x_t] under the mixture prior.

    ``x_t`` may be a single vector ``(d,)`` or a batch ``(n, d)``.
    ``extra_noise_std`` is the schedule noise eps(t) present in ``x_t`` on
    top of the observation noise; the two combine into an effective
    ``sigma_t = t * sqrt(sigma^2 + eps(t)^2)``.

    At sigma_t = 0 a row gets the w-weighted mean of the modes with the nearest
    centre ``H_t c_i``, the limit in :func:`_far_field_weights`.  t = 0 raises ValueError.
    """
    x_t = as_state(x_t, "x_t", dim=prior.dim)
    t = as_time(t)
    if t == 0.0:
        raise ValueError("need t in (0, 1]")
    # Schedule noise enters the state with std t * eps_t, independent of the
    # observation noise's t * sigma, so the stds add in quadrature.
    sigma_t = t * float(np.hypot(deg.sigma, as_scalar(extra_noise_std, "extra_noise_std")))
    centers = prior.modes @ blended_operator(deg, t).T          # (m, d)
    rows = x_t.reshape(-1, prior.dim)
    # The log terms tell the modes apart only while the squared distances do (modes
    # +-1, sigma 1, t = 0.5: they tie from x_t = 1e16, overflow from 1e154).  So a row
    # whose every term is below -_FAR_LOG, about 2^16 sigma_t from every mode, or any
    # row at sigma_t = 0, takes _nearest's gaps; golden and benchmark rows never do.
    with np.errstate(over="ignore", invalid="ignore"):  # terms that overflow go to +-inf
        if sigma_t == 0.0:  # the near field would divide by sigma_t
            post = _far_field_weights(rows, centers, prior.log_weights, sigma_t)
        else:  # log(w_i) - ||u_i||^2 / 2 in place: adding -b is subtracting b, bit for bit
            post = _mode_distances_sq(rows, centers, sigma_t)
            post *= -0.5
            post += prior.log_weights[:, None]
            top = post.max(axis=0)
            post -= top  # one term becomes exp(0) = 1, so no weight is 0 / 0
            np.exp(post, out=post)
            post /= _sum_axis(post)
            if top.min() < -_FAR_LOG:
                far = top < -_FAR_LOG
                post[:, far] = _far_field_weights(rows[far], centers, prior.log_weights, sigma_t)
    # The product takes the (..., m) weights in C order: matmul's kernel
    # depends on the layout, and a transposed view changes the bits.
    post = np.ascontiguousarray(post.T).reshape(x_t.shape[:-1] + (prior.n_modes,))
    return post @ prior.modes


def posterior_mean_at_s(x0_estimate, x_t, s, t) -> np.ndarray:
    """Slide a clean-signal estimate to time s: E[x_s | x_t] for s <= t.

    Pathwise, x_s = (1 - s/t) x + (s/t) x_t whenever x_t = (1 - t) x + t y,
    so taking conditional expectations gives

        E[x_s | x_t] = (1 - s/t) E[x | x_t] + (s/t) x_t.

    The identity is exact; no approximation is involved.
    """
    x0_estimate = as_state(x0_estimate, "x0_estimate")
    x_t = as_state(x_t, "x_t", like=x0_estimate)
    s, t = as_time(s, "s"), as_time(t)
    if s > t or t == 0.0:
        raise ValueError("need 0 <= s <= t <= 1 and t > 0")
    ratio = s / t
    return (1.0 - ratio) * x0_estimate + ratio * x_t


# ---- Gaussian-prior world (everything in closed form) ---- #


def gaussian_posterior_mean(prior: GaussianPrior, sigma_n: float, x_t, t,
                            extra_noise_std: float = 0.0) -> np.ndarray:
    """E[x | x_t] at time t for the Gaussian world:

        (sigma_c^2 x_t + t^2 sigma_n'^2 c) / (sigma_c^2 + t^2 sigma_n'^2)

    with sigma_n'^2 = sigma_n^2 + extra_noise_std^2 when schedule noise is
    present in x_t.  At t = 0 this is the identity, as it should be.
    ``x_t``'s rows have the prior's width; a 1-d prior's c spans any width.
    """
    sigma_n = as_scalar(sigma_n, "sigma_n", positive=True)
    extra_noise_std = as_scalar(extra_noise_std, "extra_noise_std")
    x_t = as_state(x_t, "x_t", dim=prior.dim if prior.dim > 1 else None)
    t = as_time(t)
    # squares overflow to inf (Python's ** raises); where one variance is inf
    # the mean is its limit, and where both are, inf / inf is a nan samplers flag
    with np.errstate(over="ignore", invalid="ignore"):
        vc = np.float64(prior.sigma_c) ** 2
        vt = (t * t) * (np.float64(sigma_n) ** 2 + np.float64(extra_noise_std) ** 2)
        if t == 0.0:  # 0 * inf is nan; at t = 0 the noise variance is 0 for any sigma_n
            vt = 0.0
        if np.isinf(vc) != np.isinf(vt):
            return x_t.copy() if np.isinf(vc) else np.broadcast_to(prior.c, x_t.shape).copy()
        return (vc * x_t + vt * prior.c) / (vc + vt)


def gaussian_flow_trajectory(prior: GaussianPrior, sigma_n: float, y, t) -> np.ndarray:
    """Exact reverse-time trajectory through y for the Gaussian world.

    With alpha = sigma_c / sigma_n the small-step iteration's continuum
    limit is a separable ODE whose solution through x_1 = y is

        x_t = c + (y - c) * sqrt((t^2 + alpha^2) / (1 + alpha^2)).

    At t = 0 this gives the limit point c + (y - c) * sqrt(sigma_c^2 /
    (sigma_c^2 + sigma_n^2)), which maps the observation marginal
    N(c, (sigma_c^2 + sigma_n^2) I) exactly onto the prior N(c, sigma_c^2 I).
    ``y``'s rows have the prior's width; a 1-d prior's c spans any width.
    """
    sigma_n = as_scalar(sigma_n, "sigma_n", positive=True)
    y = as_state(y, "y", dim=prior.dim if prior.dim > 1 else None)
    t = as_time(t)
    with np.errstate(over="ignore"):
        alpha_sq = np.float64(prior.sigma_c / sigma_n) ** 2  # inf, not OverflowError
    if np.isinf(alpha_sq):  # the scale below tends to 1, where inf / inf is nan
        return y.copy()
    scale = np.sqrt((t * t + alpha_sq) / (1.0 + alpha_sq))
    return prior.c + (y - prior.c) * scale


# ---- estimator wrappers ---- #


@dataclass(frozen=True)
class MixturePosteriorOracle:
    """Ideal estimator for the mixture world: (x_t, t) -> E[x | x_t].

    The schedule's eps(t) is folded into the effective sigma_t so the
    oracle stays exact for noisy trajectories; the default adds none.
    """

    prior: GaussianMixturePrior
    degradation: LinearDegradation
    schedule: NoiseSchedule = ConstantSchedule(0.0)

    def __call__(self, x_t, t):
        extra = schedule_epsilon(self.schedule, t)
        return mixture_posterior_mean(
            self.prior, self.degradation, x_t, t, extra_noise_std=extra
        )


@dataclass(frozen=True)
class GaussianDenoisingOracle:
    """Ideal estimator for the Gaussian world: (x_t, t) -> E[x | x_t]."""

    prior: GaussianPrior
    sigma_n: float
    schedule: NoiseSchedule = ConstantSchedule(0.0)

    def __call__(self, x_t, t):
        extra = schedule_epsilon(self.schedule, t)
        return gaussian_posterior_mean(
            self.prior, self.sigma_n, x_t, t, extra_noise_std=extra
        )
