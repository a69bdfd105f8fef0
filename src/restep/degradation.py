"""Forward degradation process and noise schedules.

A clean signal ``x`` and its degraded counterpart ``y`` are joined by the
linear interpolation

    x_t = (1 - t) * x + t * y,        0 <= t <= 1,

so ``t = 0`` is the clean end and ``t = 1`` the fully degraded end.  The
stochastic variant adds zero-mean Gaussian noise whose per-coordinate
standard deviation at time ``t`` is ``t * eps(t)`` for a finite, non-negative,
non-increasing schedule ``eps``.  The schedule constructors guarantee that,
so :func:`injected_noise_std` reads a negative radicand as knot rounding.
Under the constant schedule the noise gap between adjacent times vanishes,
so reverse-time inference only ever draws noise once, at ``t = 1``; the
Brownian schedule ``eps / sqrt(t)`` keeps injecting fresh noise along the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

__all__ = [
    "BrownianSchedule",
    "ConstantSchedule",
    "NoiseSchedule",
    "TableSchedule",
    "forward_interpolate",
    "forward_noise_std",
    "injected_noise_std",
    "schedule_epsilon",
]


def as_numbers(values, name: str) -> np.ndarray:
    """``values`` as a float64 array; bools and strings, in arrays too, are refused."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf" and not (  # ints beyond int64 make an object array
            arr.dtype.kind == "O" and all(type(v) in (int, float) for v in arr.flat)):
        raise ValueError(f"{name} must be a number, got {values!r}")
    try:
        return arr.astype(np.float64, copy=False)
    except OverflowError:  # an int beyond the float64 range
        raise ValueError(f"{name} must be a number within the float64 range") from None


def as_state(values, name: str = "state", dim: int | None = None, like=None) -> np.ndarray:
    """Coerce ``values`` with :func:`as_numbers` and require every entry finite.

    Accepts a single signal vector of shape ``(d,)`` or a batch of signals
    with the signal dimension last, e.g. ``(n, d)``.  ``dim`` requires that
    last axis to have ``dim`` coordinates; ``like`` (an array) requires the
    whole shape to be ``like.shape``.
    """
    arr = as_numbers(values, name)
    if arr.ndim == 0:
        raise ValueError(f"{name} must have at least one axis, got a scalar")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    if dim is not None and arr.shape[-1] != dim:
        raise ValueError(f"{name} must have {dim} coordinates, got shape {arr.shape}")
    if like is not None and arr.shape != like.shape:
        raise ValueError(f"{name} must have shape {like.shape}, got {arr.shape}")
    return arr


def as_count(value, name: str, lo: int = 1, hi: float = math.inf) -> int:
    """Return ``value`` as an int in [``lo``, ``hi``]; bools and non-integers are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")
    if value > hi:
        raise ValueError(f"{name} must be <= {hi}, got {value!r}")
    return int(value)


def as_scalar(value, name: str, positive: bool = False) -> float:
    """Return ``value`` as a finite float that is >= 0, or > 0 when
    ``positive``; a bool, a string or an array is refused.  A Python float
    passes first, cheap on the per-call paths."""
    try:
        if type(value) is float or (isinstance(value, (int, float, np.integer, np.floating))
                                    and not isinstance(value, bool)):
            value = float(value)
            if math.isfinite(value) and (value > 0.0 if positive else value >= 0.0):
                return value
    except OverflowError:  # an int beyond the float64 range is not finite
        pass
    raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0")


def as_time(t, name: str = "t"):
    """Return a time in [0, 1]: a scalar ``t`` as a Python float (which
    passes first, cheap on the per-call paths), anything with an axis as a
    float64 array.  Bools and strings, alone or in an array, are refused."""
    if type(t) is not float:
        t = as_numbers(t, name)
        t = float(t) if t.ndim == 0 else t
    if isinstance(t, float):
        finite, inside = math.isfinite(t), 0.0 <= t <= 1.0
    else:
        finite, inside = np.isfinite(t).all(), ((0.0 <= t) & (t <= 1.0)).all()
    if not finite:
        raise ValueError(f"{name} must be finite")
    if not inside:
        raise ValueError(f"{name} must lie in [0, 1]")
    return t


def _same(u, v) -> bool:
    if isinstance(u, list):
        return isinstance(v, list) and len(u) == len(v) and all(map(_same, u, v))
    if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
        return np.array_equal(u, v)
    return u == v


def _fields_eq(self, other):
    """``==`` for a dataclass holding arrays: the same class, and each
    compared field equal whole (arrays, also inside lists, by
    ``np.array_equal``), where the generated ``==`` would ask an array for
    its truth value."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(_same(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self) if f.compare)


# ---- noise schedules ---- #


@dataclass(frozen=True)
class ConstantSchedule:
    """eps(t) = epsilon for every t."""

    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", as_scalar(self.epsilon, "epsilon"))


@dataclass(frozen=True)
class BrownianSchedule:
    """eps(t) = epsilon / sqrt(t), defined on (0, 1] only.

    The total noise variance accumulated by time ``t`` is then
    ``(t * eps(t))**2 = t * epsilon**2``, linear in ``t`` like the
    variance of a Brownian motion.
    """

    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", as_scalar(self.epsilon, "epsilon"))


@dataclass(frozen=True)
class TableSchedule:
    """Piecewise-linear eps(t) through the knots ``(times[i], epsilons[i])``,
    whose times run from 0 to 1 (no query extrapolates) and whose slopes are
    finite (``np.interp`` never returns -inf): the constructor guarantees the
    finite, non-increasing eps the rest of the code relies on.
    """

    times: tuple
    epsilons: tuple

    def __post_init__(self):
        times = as_state(self.times, "table times")
        eps = as_state(self.epsilons, "table epsilons", like=times)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need matching 1-d times/epsilons with >= 2 knots")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise ValueError("table times must start at 0 and end at 1")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("table times must be strictly increasing")
        if np.any(eps < 0.0):
            raise ValueError("table epsilons must be >= 0")
        if np.any(np.diff(eps) > 0.0):
            raise ValueError("table epsilons must be non-increasing in t")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.diff(eps) / np.diff(times)).all():
                raise ValueError("table slopes must be finite")
        object.__setattr__(self, "times", tuple(times.tolist()))
        object.__setattr__(self, "epsilons", tuple(eps.tolist()))


NoiseSchedule = Union[ConstantSchedule, BrownianSchedule, TableSchedule]


def schedule_epsilon(schedule: NoiseSchedule, t):
    """Evaluate eps(t); ``t`` may be a scalar or an array.

    The Brownian kind diverges at t = 0 and is rejected there; callers that
    need the noise amplitude rather than eps itself should use
    :func:`forward_noise_std`, whose ``t * eps(t)`` is continuous at 0.
    A scalar ``t`` under a constant or Brownian schedule is computed in
    Python floats (``math.sqrt`` is correctly rounded, like ``np.sqrt``),
    which gives the same bits as the array path at a fraction of its cost.
    """
    t = as_time(t)
    scalar = isinstance(t, float)
    if isinstance(schedule, ConstantSchedule):
        return schedule.epsilon if scalar else np.full_like(t, schedule.epsilon)
    if isinstance(schedule, BrownianSchedule):
        if (t <= 0.0) if scalar else np.any(t <= 0.0):
            raise ValueError("Brownian schedule is undefined at t = 0")
        return schedule.epsilon / (math.sqrt(t) if scalar else np.sqrt(t))
    if not isinstance(schedule, TableSchedule):
        raise TypeError(f"unknown schedule type {type(schedule).__name__}")
    out = np.interp(t, schedule.times, schedule.epsilons)
    return float(out) if scalar else out


def forward_noise_std(schedule: NoiseSchedule, t):
    """Per-coordinate noise std ``t * eps(t)`` of the degraded signal.

    Continuous extension at t = 0: the product tends to 0 for every valid
    schedule (including Brownian, where it equals ``sqrt(t) * epsilon``),
    so 0 is returned there without evaluating eps.
    """
    t = np.asarray(as_time(t))
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = t[pos] * schedule_epsilon(schedule, t[pos])
    return float(out) if out.ndim == 0 else out


# ---- forward process ---- #


def forward_interpolate(x, y, t) -> np.ndarray:
    """Return ``(1 - t) * x + t * y`` elementwise.

    ``t`` may be a scalar applied to the whole batch or an array with one
    entry per leading (batch) element.  The endpoints are exact: t = 0
    returns ``x`` and t = 1 returns ``y`` bit for bit.
    """
    x = as_state(x, "x")
    y = as_state(y, "y", like=x)
    t = as_time(t)
    if not isinstance(t, float):
        t = t[..., None]
    return (1.0 - t) * x + t * y


def injected_noise_std(schedule: NoiseSchedule, t, delta):
    """Per-coordinate std ``(t - delta) * sqrt(eps(t-delta)^2 - eps(t)^2)`` of
    the fresh noise a reverse-time step from ``t`` to ``t - delta`` injects so
    that the iterate keeps the noise level the schedule prescribes.

    Elementwise in ``t`` and ``delta``; a float when both are scalars.  It is
    0 for any constant schedule, and exactly 0 where a step lands on t = 0,
    without querying eps there (Brownian eps is undefined at 0).  Where
    ``eps^2`` overflows it is ``(t - delta) * eps(t-delta) * sqrt(1 -
    (eps(t)/eps(t-delta))^2)``, which is nan when both epsilons are inf.
    """
    t, delta = np.broadcast_arrays(np.asarray(as_time(t)), np.asarray(as_time(delta, "delta")))
    if not np.all((0.0 < delta) & (delta <= t)):
        raise ValueError("need 0 < delta <= t <= 1")
    out = np.array(t - delta)  # t - delta >= 0, and each entry at 0 stays 0.0
    lands = out > 0.0
    target, t = out[lands], t[lands]
    eps_prev = schedule_epsilon(schedule, target)
    eps_cur = schedule_epsilon(schedule, t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        radicand = eps_prev * eps_prev - eps_cur * eps_cur
        scale = np.ones_like(radicand)
        big = ~np.isfinite(radicand)  # eps^2 overflowed: take eps_prev out of the root
        ratio = eps_cur[big] / eps_prev[big]
        radicand[big], scale[big] = 1.0 - ratio * ratio, eps_prev[big]
    np.maximum(radicand, 0.0, out=radicand)  # below 0 only by rounding at a table knot
    out[lands] = target * scale * np.sqrt(radicand)
    return float(out) if out.ndim == 0 else out
