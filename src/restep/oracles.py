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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .degradation import NoiseSchedule, as_state, schedule_epsilon

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
    "score_from_denoiser",
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

    def __post_init__(self):
        modes = np.atleast_2d(np.asarray(self.modes, dtype=np.float64))
        weights = np.asarray(self.weights, dtype=np.float64)
        if modes.ndim != 2 or modes.shape[0] < 1:
            raise ValueError("modes must be a non-empty (m, d) array")
        if not np.all(np.isfinite(modes)):
            raise ValueError("modes must be finite")
        if weights.shape != (modes.shape[0],):
            raise ValueError("need one weight per mode")
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and >= 0")
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


@dataclass(frozen=True)
class LinearDegradation:
    """Square observation operator ``H`` plus noise level ``sigma``.

    Rectangular observations are emulated with zero rows so the state
    dimension stays the same along a trajectory (e.g. H = [[1, 0], [0, 0]]
    keeps only the first coordinate).
    """

    H: np.ndarray
    sigma: float

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=np.float64))
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("H must be square")
        if not np.all(np.isfinite(H)):
            raise ValueError("H must be finite")
        if not np.isfinite(self.sigma) or self.sigma < 0.0:
            raise ValueError("sigma must be finite and >= 0")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "sigma", float(self.sigma))


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian prior N(c, sigma_c^2 I) for the fully tractable world."""

    c: np.ndarray
    sigma_c: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=np.float64))
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("c must be a finite vector")
        if not np.isfinite(self.sigma_c) or self.sigma_c <= 0.0:
            raise ValueError("sigma_c must be finite and > 0")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "sigma_c", float(self.sigma_c))

    @property
    def dim(self) -> int:
        return self.c.shape[0]


def blended_operator(deg: LinearDegradation, t: float) -> np.ndarray:
    """The interpolated operator ``H_t = (1 - t) I + t H``."""
    t = float(t)
    d = deg.H.shape[0]
    return (1.0 - t) * np.eye(d) + t * deg.H


def _effective_sigma_t(deg: LinearDegradation, t: float, extra_noise_std: float) -> float:
    # Schedule noise enters the state with std t * eps_t, independent of the
    # observation noise's t * sigma, so the stds add in quadrature.
    if extra_noise_std < 0.0 or not np.isfinite(extra_noise_std):
        raise ValueError("extra_noise_std must be finite and >= 0")
    return float(t) * float(np.hypot(deg.sigma, extra_noise_std))


def _mixture_log_terms(prior, deg, x_t, t, extra_noise_std):
    """Unshifted log terms log(w_i) - ||u_i||^2 / 2."""
    x_t = as_state(x_t, "x_t")
    if x_t.shape[-1] != prior.dim:
        raise ValueError(
            f"x_t dimension {x_t.shape[-1]} != prior dimension {prior.dim}"
        )
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ValueError("need t in (0, 1]")
    sigma_t = _effective_sigma_t(deg, t, extra_noise_std)
    if sigma_t <= 0.0:
        raise ValueError(
            "posterior degenerates to a point mass at sigma_t = 0; "
            "need deg.sigma > 0 or extra_noise_std > 0"
        )
    centers = prior.modes @ blended_operator(deg, t).T        # (m, d)
    u = (x_t[..., None, :] - centers) / sigma_t               # (..., m, d)
    with np.errstate(divide="ignore"):
        log_w = np.log(prior.weights)                         # -inf for w = 0
    return log_w - 0.5 * np.sum(u * u, axis=-1)               # (..., m)


def mixture_posterior_mean(prior: GaussianMixturePrior, deg: LinearDegradation,
                           x_t, t, extra_noise_std: float = 0.0) -> np.ndarray:
    """Posterior mean E[x | x_t] under the mixture prior.

    ``x_t`` may be a single vector ``(d,)`` or a batch ``(n, d)``.
    ``extra_noise_std`` is the schedule noise eps(t) present in ``x_t`` on
    top of the observation noise; the two combine into an effective
    ``sigma_t = t * sqrt(sigma^2 + eps(t)^2)``.

    Raises ValueError at t = 0 or when the effective sigma_t is 0: the
    posterior is then a point mass and the ratio form is undefined.
    """
    log_terms = _mixture_log_terms(prior, deg, x_t, t, extra_noise_std)
    # Max-subtraction: at least one term becomes exp(0) = 1, so the weight
    # ratios stay well defined arbitrarily far from every mode and the
    # posterior degrades gracefully to a one-hot on the closest kernel.
    post = np.exp(log_terms - np.max(log_terms, axis=-1, keepdims=True))
    post /= np.sum(post, axis=-1, keepdims=True)
    return post @ prior.modes


def posterior_mean_at_s(x0_estimate, x_t, s, t) -> np.ndarray:
    """Slide a clean-signal estimate to time s: E[x_s | x_t] for s <= t.

    Pathwise, x_s = (1 - s/t) x + (s/t) x_t whenever x_t = (1 - t) x + t y,
    so taking conditional expectations gives

        E[x_s | x_t] = (1 - s/t) E[x | x_t] + (s/t) x_t.

    The identity is exact; no approximation is involved.
    """
    x0_estimate = as_state(x0_estimate, "x0_estimate")
    x_t = as_state(x_t, "x_t")
    if x0_estimate.shape != x_t.shape:
        raise ValueError("x0_estimate and x_t must share a shape")
    s = float(s)
    t = float(t)
    if t <= 0.0:
        raise ValueError("need t > 0")
    if not 0.0 <= s <= t <= 1.0:
        raise ValueError("need 0 <= s <= t <= 1")
    ratio = s / t
    return (1.0 - ratio) * x0_estimate + ratio * x_t


# ---- Gaussian-prior world (everything in closed form) ---- #


def gaussian_posterior_mean(prior: GaussianPrior, sigma_n: float, x_t, t,
                            extra_noise_std: float = 0.0) -> np.ndarray:
    """E[x | x_t] at time t for the Gaussian world:

        (sigma_c^2 x_t + t^2 sigma_n'^2 c) / (sigma_c^2 + t^2 sigma_n'^2)

    with sigma_n'^2 = sigma_n^2 + extra_noise_std^2 when schedule noise is
    present in x_t.  At t = 0 this is the identity, as it should be.
    """
    if not np.isfinite(sigma_n) or sigma_n <= 0.0:
        raise ValueError("sigma_n must be finite and > 0")
    if extra_noise_std < 0.0 or not np.isfinite(extra_noise_std):
        raise ValueError("extra_noise_std must be finite and >= 0")
    x_t = as_state(x_t, "x_t")
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError("need t in [0, 1]")
    vc = prior.sigma_c**2
    vt = (t * t) * (sigma_n**2 + extra_noise_std**2)
    return (vc * x_t + vt * prior.c) / (vc + vt)


def gaussian_flow_trajectory(prior: GaussianPrior, sigma_n: float, y, t) -> np.ndarray:
    """Exact reverse-time trajectory through y for the Gaussian world.

    With alpha = sigma_c / sigma_n the small-step iteration's continuum
    limit is a separable ODE whose solution through x_1 = y is

        x_t = c + (y - c) * sqrt((t^2 + alpha^2) / (1 + alpha^2)).

    At t = 0 this gives the limit point c + (y - c) * sqrt(sigma_c^2 /
    (sigma_c^2 + sigma_n^2)), which maps the observation marginal
    N(c, (sigma_c^2 + sigma_n^2) I) exactly onto the prior N(c, sigma_c^2 I).
    """
    if not np.isfinite(sigma_n) or sigma_n <= 0.0:
        raise ValueError("sigma_n must be finite and > 0")
    y = as_state(y, "y")
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError("need t in [0, 1]")
    alpha_sq = (prior.sigma_c / sigma_n) ** 2
    scale = np.sqrt((t * t + alpha_sq) / (1.0 + alpha_sq))
    return prior.c + (y - prior.c) * scale


def score_from_denoiser(estimate, x_t, sigma_t: float) -> np.ndarray:
    """Score of the noisy marginal from a posterior-mean estimate.

    For x_t = (signal) + sigma_t * n the score of the marginal satisfies
    grad log p_t(x_t) = (E[x|x_t] - x_t) / sigma_t^2, so a posterior-mean
    estimator doubles as a score estimator.
    """
    if not np.isfinite(sigma_t) or sigma_t <= 0.0:
        raise ValueError("sigma_t must be finite and > 0")
    estimate = as_state(estimate, "estimate")
    x_t = as_state(x_t, "x_t")
    if estimate.shape != x_t.shape:
        raise ValueError("estimate and x_t must share a shape")
    return (estimate - x_t) / (sigma_t * sigma_t)


# ---- estimator wrappers ---- #


@dataclass(frozen=True)
class MixturePosteriorOracle:
    """Ideal estimator for the mixture world: (x_t, t) -> E[x | x_t].

    When a noise schedule is attached, its eps(t) is folded into the
    effective sigma_t so the oracle stays exact for noisy trajectories.
    """

    prior: GaussianMixturePrior
    degradation: LinearDegradation
    schedule: Optional[NoiseSchedule] = None

    def __call__(self, x_t, t):
        extra = 0.0
        if self.schedule is not None:
            extra = schedule_epsilon(self.schedule, float(t))
        return mixture_posterior_mean(
            self.prior, self.degradation, x_t, t, extra_noise_std=extra
        )


@dataclass(frozen=True)
class GaussianDenoisingOracle:
    """Ideal estimator for the Gaussian world: (x_t, t) -> E[x | x_t]."""

    prior: GaussianPrior
    sigma_n: float
    schedule: Optional[NoiseSchedule] = None

    def __call__(self, x_t, t):
        extra = 0.0
        if self.schedule is not None:
            extra = schedule_epsilon(self.schedule, float(t))
        return gaussian_posterior_mean(
            self.prior, self.sigma_n, x_t, t, extra_noise_std=extra
        )
