"""Walk the forward degradation from a clean signal to pure observation.

Prints the interpolation at a few times, the two stock noise schedules,
and the variance bookkeeping that makes per-step noise injection exact.
"""

import numpy as np

from restep.degradation import (
    BrownianSchedule,
    schedule_epsilon,
    ConstantSchedule,
    forward_interpolate,
    forward_noise_std,
    injected_noise_std,
)
from restep.worlds import derive_rng

rng = derive_rng(7, "demo", "forward")

x = np.array([1.0, -1.0])          # clean two-pixel signal
y = np.array([0.2, 0.35])          # what the sensor handed us

print("clean x =", x, " observation y =", y)
print()
print(" t     x_t (noiseless path)")
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"{t:4.2f}   {forward_interpolate(x, y, t)}")

print()
print("schedules: constant keeps eps_t = eps, brownian uses eps/sqrt(t)")
constant = ConstantSchedule(0.1)
brownian = BrownianSchedule(0.1)
print(" t     eps_t const   eps_t brown   std of t*eps_t (brown)")
for t in (0.1, 0.25, 0.5, 1.0):
    c = schedule_epsilon(constant, t)
    b = schedule_epsilon(brownian, t)
    print(f"{t:4.2f}   {c:10.4f}   {b:11.4f}   {t * b:10.4f}")

# The point of the brownian choice: the *accumulated* perturbation in x_t
# has variance t * eps^2, so stepping t -> t - delta only ever removes
# variance and the amount to re-inject stays real.
print()
print("per-step injection, stepping t -> t - delta with delta = 0.1:")
print(" t     injected std (const)   injected std (brown)")
for t in (1.0, 0.7, 0.4, 0.2):
    i_c = injected_noise_std(constant, t, 0.1)
    i_b = injected_noise_std(brownian, t, 0.1)
    print(f"{t:4.2f}   {i_c:18.6f}   {i_b:18.6f}")

print()
print("bookkeeping check at t=0.6, delta=0.25 (brownian):")
t, delta = 0.6, 0.25
lhs = ((t - delta) * schedule_epsilon(brownian, t)) ** 2 \
    + injected_noise_std(brownian, t, delta) ** 2
rhs = ((t - delta) * schedule_epsilon(brownian, t - delta)) ** 2
print(f"  carried-over var + injected var = {lhs:.12f}")
print(f"  target var at t - delta         = {rhs:.12f}")

print()
print("noisy forward draw at t=0.5 (constant schedule, seeded):")
noisy = forward_interpolate(x, y, 0.5) \
    + forward_noise_std(constant, 0.5) * rng.standard_normal(x.shape)
print("  x_t =", noisy)
print("  total noise std at this t:", forward_noise_std(constant, 0.5))
