"""Reverse-time inference: three discrete samplers and an ODE integrator.

All four routines are generic over an ``Estimator`` (anything mapping
``(x_t, t)`` to a clean-signal estimate) and run one loop from the degraded
observation at t = 1 over the run's step list (t, h, std), built once per run
from t = k/N, h = 1/N and one grid call of ``injected_noise_std``: for each
step, estimate, check, apply the routine's update rule, check.

* :func:`iterative_restore` - the small-step scheme.  Each step moves the
  iterate toward the current estimate by the convex weight h/t and,
  when the schedule calls for it, injects fresh noise so the iterate keeps
  the prescribed noise level:

      x_{t-h} = (h/t) F(x_t, t) + (1 - h/t) x_t + injected_std * zeta.

* :func:`naive_restore` - re-anchors to the raw observation every step,

      x_{t-h} = (1 - t + h) F(x_t, t) + (t - h) y,

  with no per-step noise.  Kept deliberately faithful, including its known
  tendency to degrade at large N; the harness records that rather than
  papering over it.

* :func:`cold_diffusion_restore` - the incremental variant

      x_{t-h} = x_t + h (F(x_t, t) - y),

  algebraically the two-estimate form x_t - D(F, t) + D(F, t - h) with
  D(F, s) = (1 - s) F + s y expanded and simplified.

* :func:`ode_restore` - explicit Euler or Heun on the continuum limit

      dx_t / dt = (x_t - F(x_t, t)) / t,

  integrated from 1 down to 1/N on the same step list; the field blows up at
  t = 0, so the last step, of weight h/t = 1, is the terminal map F(x, 1/N).
  Euler is the iterative rule without noise; Heun calls the estimator twice
  on every step but that last one.

States may be single vectors ``(d,)`` or batches ``(n, d)``; every routine
is deterministic given its seed, with noise drawn in a fixed order (after
the estimator call of each step, skipped entirely when its std is zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degradation import (
    ConstantSchedule,
    NoiseSchedule,
    as_count,
    as_numbers,
    injected_noise_std,
    schedule_epsilon,
)
from .oracles import Estimator
from .worlds import _check_finite, derive_rng

__all__ = [
    "SamplerConfig",
    "cold_diffusion_restore",
    "iterative_restore",
    "naive_restore",
    "ode_restore",
]


@dataclass(frozen=True)
class SamplerConfig:
    """Step count N (grid delta = 1/N), noise schedule, seed (an integer
    >= 0; a run draws from ``derive_rng(seed)``), and whether to record
    the full trajectory."""

    steps: int
    schedule: NoiseSchedule = ConstantSchedule(0.0)
    seed: int = 0
    record_trajectory: bool = False

    def __post_init__(self):
        as_count(self.steps, "steps")
        as_count(self.seed, "seed", 0)


def _steps(n: int, schedule: NoiseSchedule) -> list:
    """The step list ``(t, h, std)`` of a run on the N = n grid: t = (n - k)/n,
    h exactly 1/n (not t_k - t_{k+1}: at n = 3, 1 - 2/3 != 1/3), and the
    injected noise std of every step from one elementwise call."""
    t = np.arange(n, 0, -1) / n
    return list(zip(t.tolist(), [1.0 / n] * n, injected_noise_std(schedule, t, 1.0 / n).tolist()))


def _restore(estimator: Estimator, y, config: SamplerConfig, rule):
    """The one step loop: from x_1 = y + eps(1) * n (no draw when eps(1) = 0),
    estimate, check, ``rule(x, est, t, h, std, k, y, rng)`` and check again
    for each step of ``config``'s step list, recording ``(t, state)`` for the
    state entering each step and for the output at the last step's t - h.
    A non-finite x_1 (an overflowed observation or start noise) diverges at step 0.
    """
    y = as_numbers(y, "y")  # not as_state: a non-finite y diverges at step 0
    if y.ndim == 0:
        raise ValueError("y must have at least one axis, got a scalar")
    rng = derive_rng(config.seed)
    x = np.array(y, copy=True)
    eps1 = schedule_epsilon(config.schedule, 1.0)
    if eps1 > 0.0:
        x += eps1 * rng.standard_normal(x.shape)
    x = _check_finite(x, 0, 1.0, "start")
    traj = [] if config.record_trajectory else None
    for k, (t, h, std) in enumerate(_steps(config.steps, config.schedule)):
        if traj is not None:
            traj.append((t, x.copy()))
        est = _check_finite(estimator(x, t), k, t, "estimate")
        x = _check_finite(rule(x, est, t, h, std, k, y, rng), k, t, "iterate")
    if traj is not None:
        traj.append((t - h, x.copy()))
    return x, traj


def _stepwise_rule(x, est, t, h, std, k, y, rng):
    """x <- (h/t) F + (1 - h/t) x, plus the step's injected noise."""
    coef = h / t
    x = coef * est + (1.0 - coef) * x
    if std > 0.0:
        x = x + std * rng.standard_normal(x.shape)
    return x


def _naive_rule(x, est, t, h, std, k, y, rng):
    return (1.0 - t + h) * est + (t - h) * y


def _cold_diffusion_rule(x, est, t, h, std, k, y, rng):
    return x + h * (est - y)


def iterative_restore(estimator: Estimator, y, config: SamplerConfig):
    """Run the small-step sampler from observation ``y`` down to t = 0.

    Returns ``(x0, trajectory)`` where ``trajectory`` is None unless
    ``config.record_trajectory`` is set, and then a list of ``(t, state)``
    pairs from t = 1 down to t = 0.  The final step has weight
    delta/t = 1 exactly, so the output is a pure estimator application at
    t = delta (plus terminal noise if the schedule still carries any).
    """
    return _restore(estimator, y, config, _stepwise_rule)


def naive_restore(estimator: Estimator, y, config: SamplerConfig):
    """Run the observation-anchored sampler; see the module docstring.

    Coincides with :func:`iterative_restore` at N = 1 (both reduce to a
    single estimator application at t = 1).
    """
    return _restore(estimator, y, config, _naive_rule)


def cold_diffusion_restore(estimator: Estimator, y, config: SamplerConfig):
    """Run the incremental-correction sampler; see the module docstring."""
    return _restore(estimator, y, config, _cold_diffusion_rule)


def ode_restore(estimator: Estimator, y, method: str = "euler", n_steps: int = 100) -> np.ndarray:
    """Integrate the residual flow from t = 1 down to 1/N on the samplers'
    step list; its last step, of weight h/t = 1, is the terminal map F(x, 1/N).

    Euler is :func:`iterative_restore` under a zero-noise schedule, evaluated
    in the identical convex arrangement (delta/t) * F + (1 - delta/t) * x.
    Heun averages the field at both ends of every step but the last (EDM's
    Algorithm 1, Karras et al. 2022) for second order: 2N - 1 estimator calls.
    """
    if method not in ("euler", "heun"):
        raise ValueError(f"method must be 'euler' or 'heun', got {method!r}")
    n = as_count(n_steps, "n_steps")

    def heun(x, est, t, h, std, k, y, rng):
        if t == h:  # the last step: t = 1/n and h = 1.0/n exactly
            return _stepwise_rule(x, est, t, h, std, k, y, rng)
        k1 = (x - est) / t
        t2 = t - h
        x_pred = x - h * k1
        est2 = _check_finite(estimator(x_pred, t2), k, t2, "estimate")
        k2 = (x_pred - est2) / t2
        return x - 0.5 * h * (k1 + k2)

    rule = heun if method == "heun" else _stepwise_rule
    return _restore(estimator, y, SamplerConfig(steps=n), rule)[0]
