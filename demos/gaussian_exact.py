"""Everything is solvable in closed form on the scalar Gaussian world.

Prior N(c, sigma_c^2), observation y = x + sigma_n * n. The stepwise
restoration has an exact continuum limit, so this script compares the
discrete sampler against pencil-and-paper answers at every stage.
"""

import numpy as np

from restep.oracles import GaussianPrior, gaussian_flow_trajectory, gaussian_posterior_mean
from restep.samplers import SamplerConfig, iterative_restore
from restep.worlds import GaussianWorld, derive_rng

prior = GaussianPrior([0.0], sigma_c=1.0)
sigma_n = 1.0
world = GaussianWorld(prior, sigma_n)
oracle = world.oracle()
y = np.array([2.0])

print("observation y = 2.0 with c = 0, sigma_c = sigma_n = 1")
print()
print("single-shot posterior mean (best mse, no distribution match):")
print(f"  E[x|y] = {gaussian_posterior_mean(world, y, 1.0)[0]:.6f}")
print()
print("continuum limit of the stepwise path at t -> 0:")
limit = gaussian_flow_trajectory(world, y, 0.0)[0]
print(f"  x_0 = y * sqrt(sigma_c^2 / (sigma_c^2 + sigma_n^2)) = {limit:.6f}")
print()
print("discrete sampler converges to that limit at first order:")
print("    N     output      |error|")
for n in (10, 100, 1000, 10000):
    out = iterative_restore(oracle, y, SamplerConfig(steps=n))
    print(f"{n:5d}   {out[0]:.6f}   {abs(out[0] - limit):.2e}")

print()
print("the flow map pushes the whole observation marginal onto the")
print("prior: restoring 20000 random observations and comparing moments,")
rng = derive_rng(11, "demo", "gauss")
ys = rng.normal(0.0, np.sqrt(prior.sigma_c ** 2 + sigma_n ** 2),
                size=(20_000, 1))
outs = iterative_restore(oracle, ys, SamplerConfig(steps=500))
print(f"  output mean {outs.mean():+.4f} (prior 0), "
      f"variance {outs.var(ddof=1):.4f} (prior 1)")

print()
print("score consistency at a few (t, x_t) points; the denoiser and the")
print("score of the noisy marginal are two views of one object:")
for t, x_t in ((0.9, 1.4), (0.5, -0.3), (0.2, 0.7)):
    pm = gaussian_posterior_mean(world, np.array([x_t]), t)
    score = (pm - x_t) / (t * sigma_n) ** 2  # Tweedie: E[x|x_t] = x_t + sigma_t^2 * score
    analytic = -(x_t - prior.c[0]) / (prior.sigma_c ** 2 + (t * sigma_n) ** 2)
    print(f"  t={t:.1f} x_t={x_t:+.1f}: score {score[0]:+.6f} "
          f"analytic {analytic:+.6f}")
