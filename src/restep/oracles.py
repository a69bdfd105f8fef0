"""Closed-form posterior means for the two solvable worlds.

Both worlds observe ``y = H x + n`` with ``n ~ N(0, sigma^2 I)`` and embed
the pair in the interpolation ``x_t = (1 - t) x + t y``.  Substituting the
observation model gives

    x_t = (1 - t) x + t H x + t * n,    sigma_t = t * sigma,

so given ``x = c_i`` the state is Gaussian with mean ``(1 - t) c_i + t D_i``, where
``D = C H^T`` is the table of degraded modes, and std ``sigma_t`` per coordinate.  Under
a mixture prior over modes ``c_i`` with weights ``w_i`` the posterior mean of ``x`` is

    E[x | x_t] = sum_i c_i w_i G(u_i) / sum_i w_i G(u_i),
    u_i = (x_t - (1 - t) c_i - t D_i) / sigma_t,   G(u) = exp(-||u||^2 / 2),

and for a Gaussian prior ``N(c, sigma_c^2 I)`` (with ``H = I``) everything
stays Gaussian and is available in closed form, including the whole
reverse-time trajectory.  These forms double as ideal estimators and as
ground truth for the samplers and the trained regressor.

The mixture posterior runs mode-major: a batch of n states against m
modes in d dimensions is held as d contiguous (m, n) blocks, one per
coordinate, filled by one subtraction of the transposed rows and centres into
a C-ordered (d, m, n) array, so every elementwise step runs along the n rows;
broadcasting ``x_t[..., None, :] - centers`` instead runs n * m inner loops of
length d, and letting the subtraction allocate takes its inputs' transposed
layout, which is slower.  The squared norms (over d) and the normaliser (over
m) are sums over the first, short axis of terms that are never -0.0, and
:func:`_sum_axis` gives them the bits of ``np.sum`` over that axis laid out
last: below 8 terms numpy adds left to right from +0.0, which changes no such
term, so the helper adds whole slices in place from the first two; from 8
terms up it calls ``np.sum`` on a copy with the axis last.  The exponentials
are divided by the normaliser straight into C-ordered (n, m) weights (written
through their transpose), because the final product's matmul chooses its
kernel by memory layout and a transposed view gives different last bits.
The table ``D`` and ``log w`` depend on no call's input: the world forms them
once, and its closed form and oracle read them.  Far from every mode, and at
sigma_t = 0, the log terms come from the gaps of :func:`_nearest`, the one
"which centre is nearest" rule, shared by metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .degradation import (
    ConstantSchedule,
    NoiseSchedule,
    as_scalar,
    as_state,
    as_time,
    schedule_epsilon,
)

if TYPE_CHECKING:  # the worlds hand out these oracles, so they import this module
    from .worlds import GaussianWorld, MixtureWorld

__all__ = [
    "GaussianDenoisingOracle",
    "MixturePosteriorOracle",
    "gaussian_flow_trajectory",
    "gaussian_posterior_mean",
    "mixture_posterior_mean",
    "posterior_mean_at_s",
]

# Anything mapping (x_t, t) -> estimate of the clean signal: the analytic
# oracles below and the trained regressor all satisfy this.
Estimator = Callable[[np.ndarray, float], np.ndarray]


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
    and m ``centers`` (m, d), filled by one subtraction and summed by :func:`_sum_axis`."""
    u = np.empty((x.shape[1], centers.shape[0], x.shape[0]))  # C order, not the inputs'
    np.subtract(x.T[:, None, :], centers.T[:, :, None], out=u)
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
    # each row's power of two, or 2^-1000 of the centres' (at least 2^-1074) where larger
    e = np.frexp(np.maximum(np.max(np.abs(xt), axis=0), np.ldexp(1.0, max(e_c - 1000, -1074))))[1]
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


def _far_field_log_terms(x: np.ndarray, centers: np.ndarray, log_w: np.ndarray,
                         sigma_t: float) -> np.ndarray:
    """The (m, n) log terms gap_i / sigma_t^2 + log w_i of the n rows of ``x``, with the
    gaps of :func:`_nearest` over the positive-weight modes put back with their powers
    of two (exact, or -inf: a weight of 0).  At sigma_t = 0 every gap below 0 is -inf,
    so the nearest centres share the weight by w_i."""
    live = log_w > -np.inf
    _, gaps, e = _nearest(x, centers[live])
    # at sigma_t = 0, an exponent past every float's sends each gap below 0 to -inf
    m_s, e_s = np.frexp(sigma_t) if sigma_t > 0.0 else (0.5, -2**14)
    rel = np.full((len(centers), len(x)), -np.inf)
    rel[live] = np.ldexp(gaps / (m_s * m_s), e - 2 * e_s) + log_w[live, None]
    return rel


def mixture_posterior_mean(world: MixtureWorld, x_t, t, extra_noise_std: float = 0.0
                           ) -> np.ndarray:
    """Posterior mean E[x | x_t] in the mixture world.

    ``x_t`` may be a single vector ``(d,)`` or a batch ``(n, d)``.  ``extra_noise_std`` is
    the schedule noise eps(t) present in ``x_t`` on top of the observation noise; the two
    combine into an effective ``sigma_t = t * sqrt(sigma^2 + eps(t)^2)``.

    The centres are ``(1 - t) c_i + t D_i`` over the world's table ``D`` of degraded modes,
    and the modes at t = 0, where ``0 * inf`` would be nan: the mean is finite at any finite
    ``x_t`` wherever ``D`` is finite, and at t = 0.  At sigma_t = 0, t = 0 included, a row gets
    the w-weighted mean of the modes with the nearest centre (:func:`_far_field_log_terms`).
    """
    modes, log_w = world.modes, world.log_weights
    x_t = as_state(x_t, "x_t", dim=world.dim)
    t = as_time(t)
    # Schedule noise enters the state with std t * eps_t, independent of the
    # observation noise's t * sigma, so the stds add in quadrature.
    sigma_t = t * float(np.hypot(world.sigma, as_scalar(extra_noise_std, "extra_noise_std")))
    rows = x_t.reshape(-1, world.dim)
    # The log terms tell the modes apart only while the squared distances do (modes
    # +-1, sigma 1, t = 0.5: they tie from x_t = 1e16, overflow from 1e154).  So a row
    # whose every term is below -_FAR_LOG, about 2^16 sigma_t from every mode, takes
    # _nearest's gaps; at sigma_t = 0 every term is -inf or 0 / 0, so every row does.
    # Golden and benchmark rows never do.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # to +-inf or nan
        centers = modes if t == 0.0 else (1.0 - t) * modes + t * world.degraded_modes
        # log(w_i) - ||u_i||^2 / 2 in place: adding -b is subtracting b, bit for bit
        post = _mode_distances_sq(rows, centers, sigma_t)
        post *= -0.5
        post += log_w[:, None]
        top = post.max(axis=0)
        near = top >= -_FAR_LOG  # a nan top (0 / 0 at sigma_t = 0) is far too
        if not near.all():
            far = ~near
            post[:, far] = _far_field_log_terms(rows[far], centers, log_w, sigma_t)
            top[far] = post[:, far].max(axis=0)
        post -= top  # one term becomes exp(0) = 1, so no weight is 0 / 0
        np.exp(post, out=post)
        # normalised straight into the (n, m) C-ordered weights the product takes
        weights = np.empty((len(rows), len(modes)))
        np.divide(post, _sum_axis(post), out=weights.T)
    return weights.reshape(x_t.shape[:-1] + (len(modes),)) @ modes


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


def gaussian_posterior_mean(world: GaussianWorld, x_t, t, extra_noise_std: float = 0.0
                            ) -> np.ndarray:
    """E[x | x_t] at time t in the Gaussian world:

        (sigma_c^2 x_t + t^2 sigma_n'^2 c) / (sigma_c^2 + t^2 sigma_n'^2)

    with sigma_n'^2 = sigma_n^2 + extra_noise_std^2 when schedule noise is
    present in x_t.  At t = 0 this is the identity, as it should be.
    ``x_t``'s rows have the prior's width; a 1-d prior's c spans any width.
    """
    extra_noise_std = as_scalar(extra_noise_std, "extra_noise_std")
    x_t = as_state(x_t, "x_t", dim=world.dim if world.dim > 1 else None)
    t = as_time(t)
    # squares overflow to inf (Python's ** raises); where one variance is inf
    # the mean is its limit, and where both are, inf / inf is a nan samplers flag
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vc = np.float64(world.sigma_c) ** 2
        vt = (t * t) * (np.float64(world.sigma_n) ** 2 + np.float64(extra_noise_std) ** 2)
        if t == 0.0:  # 0 * inf is nan; at t = 0 the noise variance is 0 for any sigma_n
            vt = 0.0
        if np.isinf(vc) != np.isinf(vt):
            return x_t.copy() if np.isinf(vc) else np.broadcast_to(world.c, x_t.shape).copy()
        try:
            with np.errstate(over="raise"):
                return (vc * x_t + vt * world.c) / (vc + vt)
        except FloatingPointError:  # a term overflowed; the mean, a convex blend, is a float
            g = 1.0 / (1.0 + vt / vc)
            blend = g * x_t + (1.0 - g) * world.c
            out = (vc * x_t + vt * world.c) / (vc + vt)
            return blend if np.isinf(vc + vt) else np.where(np.isfinite(out), out, blend)


def gaussian_flow_trajectory(world: GaussianWorld, y, t) -> np.ndarray:
    """Exact reverse-time trajectory through y in the Gaussian world.

    With alpha = sigma_c / sigma_n the small-step iteration's continuum
    limit is a separable ODE whose solution through x_1 = y is

        x_t = c + (y - c) * sqrt((t^2 + alpha^2) / (1 + alpha^2)).

    At t = 0 this gives the limit point c + (y - c) * sqrt(sigma_c^2 /
    (sigma_c^2 + sigma_n^2)), which maps the observation marginal
    N(c, (sigma_c^2 + sigma_n^2) I) exactly onto the prior N(c, sigma_c^2 I).
    ``y``'s rows have the prior's width; a 1-d prior's c spans any width.
    """
    y = as_state(y, "y", dim=world.dim if world.dim > 1 else None)
    t = as_time(t)
    with np.errstate(over="ignore"):
        alpha_sq = np.float64(world.sigma_c / world.sigma_n) ** 2  # inf, not OverflowError
    if np.isinf(alpha_sq):  # the scale below tends to 1, where inf / inf is nan
        return y.copy()
    scale = np.sqrt((t * t + alpha_sq) / (1.0 + alpha_sq))
    with np.errstate(over="ignore", invalid="ignore"):  # y - c overflows where x_t is a float
        out = world.c + (y - world.c) * scale
        return np.where(np.isfinite(out), out, (1.0 - scale) * world.c + scale * y)


# ---- estimator wrappers ---- #


@dataclass(frozen=True)
class MixturePosteriorOracle:
    """Ideal estimator for the mixture world: (x_t, t) -> E[x | x_t].

    The schedule's eps(t) is folded into the effective sigma_t so the
    oracle stays exact for noisy trajectories; the default adds none.
    """

    world: MixtureWorld
    schedule: NoiseSchedule = ConstantSchedule(0.0)

    def __call__(self, x_t, t):
        return mixture_posterior_mean(self.world, x_t, t, schedule_epsilon(self.schedule, t))


@dataclass(frozen=True)
class GaussianDenoisingOracle:
    """Ideal estimator for the Gaussian world: (x_t, t) -> E[x | x_t]."""

    world: GaussianWorld
    schedule: NoiseSchedule = ConstantSchedule(0.0)

    def __call__(self, x_t, t):
        return gaussian_posterior_mean(self.world, x_t, t, schedule_epsilon(self.schedule, t))
