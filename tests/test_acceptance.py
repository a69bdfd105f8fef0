"""Release gate: twelve numbered end-to-end checks.

Each test prints a single verdict line (run pytest with ``-s`` to see the
lines for passing tests). The checks are intentionally redundant with the
unit suite: they exercise public entry points only, at full advertised
scale, with their own derived seeds, so a regression in any layer shows up
here even if a narrower test was weakened by mistake.
"""

import time

import numpy as np
from numpy.testing import assert_array_equal

from restep.harness import default_config, run_experiment
from restep.oracles import (
    GaussianMixturePrior,
    GaussianPrior,
    LinearDegradation,
    gaussian_posterior_mean,
    mixture_posterior_mean,
    posterior_mean_at_s,
)
from restep.regressor import (
    TIME_DISTRIBUTION_KINDS,
    MlpRegressor,
    TimeDistribution,
    loss_and_gradients,
    sample_times,
    time_distribution_cdf,
)
from restep.samplers import SamplerConfig, iterative_restore, ode_restore
from restep.worlds import GaussianWorld, MixtureWorld, derive_rng


def _verdict(num, label, ok, detail):
    word = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{label}]: {word} ({detail})"
    print(line, flush=True)
    assert ok, line


def _random_mixture(rng):
    dim = int(rng.integers(1, 4))
    k = int(rng.integers(2, 6))
    modes = rng.uniform(-2.0, 2.0, size=(k, dim))
    weights = rng.uniform(0.2, 1.0, size=k)
    weights = weights / weights.sum()
    H = rng.normal(0.0, 1.0, size=(dim, dim))
    sigma = float(rng.uniform(0.3, 1.5))
    return GaussianMixturePrior(modes, weights), LinearDegradation(H, sigma)


def test_criterion_01_posterior_slide_identity():
    """E[x_s | x_t] computed two ways agrees to 1e-10, and matches a
    brute-force Monte-Carlo conditional mean within 3 standard errors."""
    t0 = time.perf_counter()
    rng = derive_rng(0, "acceptance", "slide-identity")
    worst = 0.0
    n_triples = 0
    while n_triples < 1000:
        prior, deg = _random_mixture(rng)
        dim = prior.modes.shape[1]
        t = float(rng.uniform(0.05, 1.0))
        s = float(rng.uniform(0.0, 1.0)) * t
        x_t = rng.normal(0.0, 2.0, size=(100, dim))

        pm = mixture_posterior_mean(MixtureWorld(prior, deg), x_t, t)
        via_package = posterior_mean_at_s(pm, x_t, s, t)

        # independent route: posterior atom weights from first principles,
        # then the per-atom slide averaged under them; the centres H_t c_i
        # use the blended matrix, not the oracle's table of degraded modes
        H_t = (1.0 - t) * np.eye(dim) + t * deg.H
        sigma_t = t * deg.sigma
        resid = x_t[:, None, :] - prior.modes @ H_t.T
        logw = np.log(prior.weights) - \
            0.5 * np.sum(resid ** 2, axis=-1) / sigma_t ** 2
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw)
        w /= w.sum(axis=1, keepdims=True)
        per_atom = (1.0 - s / t) * prior.modes[None, :, :] \
            + (s / t) * x_t[:, None, :]
        brute = np.sum(w[:, :, None] * per_atom, axis=1)

        worst = max(worst, float(np.max(np.abs(via_package - brute))))
        n_triples += 100

    # Monte-Carlo side: one fixed scalar world, draws binned around a probe
    prior = GaussianMixturePrior(np.array([[1.0], [-1.0]]), [0.5, 0.5])
    deg = LinearDegradation(np.array([[1.0]]), 1.0)
    s, t, probe, half_width = 0.3, 0.7, 0.35, 0.01
    mc = derive_rng(0, "acceptance", "slide-mc")
    x = prior.modes[mc.choice(2, size=100_000, p=prior.weights), 0]
    y = x + deg.sigma * mc.normal(size=100_000)
    x_t = (1.0 - t) * x + t * y
    keep = np.abs(x_t - probe) <= half_width
    x_s = (1.0 - s) * x[keep] + s * y[keep]
    se = x_s.std(ddof=1) / np.sqrt(keep.sum())
    pm_probe = mixture_posterior_mean(MixtureWorld(prior, deg), np.array([probe]), t)
    target = posterior_mean_at_s(pm_probe, np.array([probe]), s, t)[0]
    mc_gap = abs(x_s.mean() - target)

    wall = time.perf_counter() - t0
    ok = worst < 1e-10 and mc_gap <= 3.0 * se and wall < 60.0
    _verdict(1, "posterior slide identity", ok,
             f"analytic max |diff| {worst:.2e} over {n_triples} triples, "
             f"MC gap {mc_gap:.3f} vs 3SE {3 * se:.3f} "
             f"(n_bin {int(keep.sum())}), {wall:.1f}s")


def test_criterion_02_gaussian_closed_form_limit():
    """Oracle-driven restoration of y=2 on the unit Gaussian world lands on
    2/sqrt(2) and converges at first order in the step count."""
    t0 = time.perf_counter()
    oracle = GaussianWorld(GaussianPrior([0.0], 1.0), 1.0).oracle()
    y = np.array([2.0])
    limit = 2.0 / np.sqrt(2.0)

    out = iterative_restore(oracle, y, SamplerConfig(steps=1000))
    point_err = abs(float(out[0]) - limit)

    grid = [10, 31, 100, 316, 1000, 3162, 10000]
    errs = []
    for n in grid:
        o = iterative_restore(oracle, y, SamplerConfig(steps=n))
        errs.append(abs(float(o[0]) - limit))
    slope = float(np.polyfit(np.log(grid), np.log(errs), 1)[0])

    wall = time.perf_counter() - t0
    ok = point_err <= 2e-3 and -1.3 <= slope <= -0.7 and wall < 60.0
    _verdict(2, "gaussian closed-form limit", ok,
             f"N=1000 err {point_err:.2e} (tol 2e-3), "
             f"slope {slope:.3f} in [-1.3, -0.7], {wall:.1f}s")


def test_criterion_03_distribution_preservation():
    """Restoring a large batch of observations drawn from the degraded
    marginal returns samples whose mean and variance match the prior."""
    t0 = time.perf_counter()
    prior = GaussianPrior([0.0], 1.0)
    oracle = GaussianWorld(prior, sigma_n=1.0).oracle()
    n = 10_000
    rng = derive_rng(0, "acceptance", "preservation")
    y = rng.normal(0.0, np.sqrt(2.0), size=(n, 1))
    out = iterative_restore(oracle, y, SamplerConfig(steps=1000))
    out = out[:, 0]

    mean_gap = abs(out.mean() - 0.0)
    se_mean = out.std(ddof=1) / np.sqrt(n)
    var = out.var(ddof=1)
    var_gap = abs(var - 1.0)
    se_var = var * np.sqrt(2.0 / (n - 1))

    wall = time.perf_counter() - t0
    ok = mean_gap <= 3 * se_mean and var_gap <= 3 * se_var and wall < 120.0
    _verdict(3, "distribution preservation", ok,
             f"mean gap {mean_gap:.4f} vs 3SE {3 * se_mean:.4f}, "
             f"var gap {var_gap:.4f} vs 3SE {3 * se_var:.4f}, {wall:.1f}s")


def test_criterion_04_toy_mode_convergence():
    """Both 2-d toy worlds park >= 99% of oracle restorations within 1e-2
    of a prior mode at N=100, while the one-step output from a symmetric
    input sits strictly between the modes."""
    t0 = time.perf_counter()
    details = []
    hits_ok = True
    for kind in ("toy2d_a", "toy2d_b"):
        report = run_experiment(default_config(kind), write=False)
        rate = report.rows[0]["mode_hit_rate"]
        hits_ok = hits_ok and rate >= 0.99
        details.append(f"{kind} hit {rate:.3f}")

    symmetric_ok = True
    for sigma, H in ((1.0, np.eye(2)),
                     (0.3, np.array([[1.0, 0.0], [0.0, 0.0]]))):
        prior = GaussianMixturePrior(
            np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]),
            np.full(4, 0.25))
        oracle = MixtureWorld(prior, LinearDegradation(H, sigma)).oracle()
        one_step = iterative_restore(oracle, np.zeros(2), SamplerConfig(steps=1))
        dists = np.linalg.norm(prior.modes - one_step, axis=1)
        symmetric_ok = symmetric_ok and bool(np.all(dists > 0.0))

    wall = time.perf_counter() - t0
    ok = hits_ok and symmetric_ok and wall < 60.0
    _verdict(4, "toy mode convergence", ok,
             f"{', '.join(details)}, symmetric N=1 off-mode: {symmetric_ok}, "
             f"{wall:.1f}s")


def test_criterion_05_sampler_matches_explicit_euler():
    """The noiseless sampler and an explicit Euler integration of the
    residual flow produce elementwise identical iterates."""
    t0 = time.perf_counter()
    prior = GaussianMixturePrior(
        np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]),
        np.full(4, 0.25))
    oracle = MixtureWorld(prior, LinearDegradation(np.eye(2), 1.0)).oracle()
    y = derive_rng(0, "acceptance", "euler").normal(0.0, 1.2, size=(64, 2))
    all_equal = True
    for n in (5, 50):
        stepped = iterative_restore(oracle, y, SamplerConfig(steps=n))
        integrated = ode_restore(oracle, y, method="euler", n_steps=n)
        try:
            assert_array_equal(stepped, integrated)
        except AssertionError:
            all_equal = False
    wall = time.perf_counter() - t0
    ok = all_equal and wall < 60.0
    _verdict(5, "sampler equals explicit Euler", ok,
             f"bitwise identical at N=5 and N=50: {all_equal}, {wall:.1f}s")


def test_criterion_06_score_consistency():
    """On the Gaussian world, stepping the observation along the score of
    the analytic noisy marginal recovers the posterior mean to 1e-10."""
    t0 = time.perf_counter()
    prior = GaussianPrior([0.4], 1.3)
    sigma_n = 0.8
    world = GaussianWorld(prior, sigma_n)
    rng = derive_rng(0, "acceptance", "score")
    t = rng.uniform(0.05, 1.0, size=1000)
    x_t = rng.normal(0.0, 2.0, size=1000)

    sigma_marg2 = prior.sigma_c ** 2 + (t * sigma_n) ** 2
    score = -(x_t - prior.c[0]) / sigma_marg2
    via_score = x_t + (t * sigma_n) ** 2 * score
    direct = np.array([
        gaussian_posterior_mean(world, np.array([xv]), tv)[0]
        for xv, tv in zip(x_t, t)
    ])
    worst = float(np.max(np.abs(via_score - direct)))
    wall = time.perf_counter() - t0
    ok = worst < 1e-10 and wall < 60.0
    _verdict(6, "score consistency", ok,
             f"max |diff| {worst:.2e} over 1000 points, {wall:.1f}s")


def test_criterion_07_gradient_check():
    """Hand-rolled backprop agrees with central differences to a relative
    error below 1e-4 on 50 random small networks."""
    t0 = time.perf_counter()
    rng = derive_rng(0, "acceptance", "gradcheck")
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        hidden = [int(rng.integers(2, 7))
                  for _ in range(int(rng.integers(1, 3)))]
        activation = ("tanh", "relu")[int(rng.integers(0, 2))]
        p_norm = int(rng.integers(1, 3))
        # redraw any configuration that places a relu preactivation or an
        # absolute-loss residual within reach of the finite-difference
        # window; central differences straddle those kinks otherwise
        while True:
            model = MlpRegressor.create(dim, hidden, rng,
                                        activation=activation)
            batch = int(rng.integers(3, 9))
            inputs = rng.normal(0.0, 1.0, size=(batch, dim + 1))
            targets = rng.normal(0.0, 1.0, size=(batch, dim))
            margin = np.inf
            if activation == "relu":
                h = inputs
                for w, b in zip(model.weights[:-1], model.biases[:-1]):
                    z = h @ w.T + b
                    margin = min(margin, float(np.min(np.abs(z))))
                    h = np.maximum(z, 0.0)
            if p_norm == 1:
                resid = model.predict(inputs[:, :dim], inputs[:, dim]) \
                    - targets
                margin = min(margin, float(np.min(np.abs(resid))))
            if margin > 1e-4:
                break

        _, grads_w, grads_b = loss_and_gradients(
            model, inputs, targets, p_norm)
        analytic = np.concatenate(
            [g.ravel() for g in grads_w] + [g.ravel() for g in grads_b])

        h = 1e-6
        numeric = []
        for params in (model.weights, model.biases):
            for layer in params:
                flat = layer.ravel()
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + h
                    up, _, _ = loss_and_gradients(
                        model, inputs, targets, p_norm)
                    flat[i] = keep - h
                    down, _, _ = loss_and_gradients(
                        model, inputs, targets, p_norm)
                    flat[i] = keep
                    numeric.append((up - down) / (2.0 * h))
        numeric = np.array(numeric)
        rel = np.linalg.norm(analytic - numeric) / \
            max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, float(rel))
    wall = time.perf_counter() - t0
    ok = worst < 1e-4 and wall < 120.0
    _verdict(7, "gradient check", ok,
             f"worst relative error {worst:.2e} over 50 networks, {wall:.1f}s")


def test_criterion_08_time_sampler_cdfs():
    """Each time-distribution sampler tracks its analytic CDF (KS < 0.01
    over 1e5 draws; the statistic honours the atom at t=1), and the
    linear_a(1) atom carries half the mass to within 0.002."""
    t0 = time.perf_counter()
    n = 100_000
    worst_kind, worst_ks = "", -1.0
    atom_gap = None
    for kind in TIME_DISTRIBUTION_KINDS:
        dist = TimeDistribution(kind, a=1.0) if kind == "linear_a" \
            else TimeDistribution(kind)
        draws = sample_times(dist, derive_rng(0, "acceptance-pt", kind), n)

        values, counts = np.unique(draws, return_counts=True)
        ecdf_at = np.cumsum(counts) / n
        ecdf_below = (np.cumsum(counts) - counts) / n
        cdf_at = time_distribution_cdf(dist, values)
        cdf_below = time_distribution_cdf(
            dist, np.nextafter(values, -np.inf))
        ks = float(max(np.abs(ecdf_at - cdf_at).max(),
                       np.abs(ecdf_below - cdf_below).max()))
        if ks > worst_ks:
            worst_kind, worst_ks = kind, ks
        if kind == "linear_a":
            atom_gap = abs(float(np.mean(draws == 1.0)) - 0.5)

    wall = time.perf_counter() - t0
    ok = worst_ks < 0.01 and atom_gap <= 0.002 and wall < 60.0
    _verdict(8, "time sampler CDFs", ok,
             f"worst KS {worst_ks:.4f} ({worst_kind}), "
             f"atom mass gap {atom_gap:.4f} (tol 0.002), {wall:.1f}s")


def test_criterion_09_sampler_comparison_direction():
    """With a deliberately imperfect trained regressor the naive sampler is
    divergent or strictly worse in mse than the stepwise sampler at
    N >= 100, identical at N=1; cold diffusion stays finite and bounded."""
    t0 = time.perf_counter()
    report = run_experiment(default_config("sampler_compare"), write=False)
    by = {(row["N"], row["sampler"]): row for row in report.rows}

    n1_equal = by[(1, "naive")]["mse"] == by[(1, "iterative")]["mse"]
    naive_ok = True
    gaps = []
    for n in (100, 1000):
        naive, ours = by[(n, "naive")], by[(n, "iterative")]
        worse = naive["divergent"] == 1 or naive["mse"] > ours["mse"]
        naive_ok = naive_ok and worse
        gaps.append(naive["mse"] - ours["mse"])
    cold = by[(1000, "cold_diffusion")]
    cold_ok = cold["divergent"] == 0 and np.isfinite(cold["mse"]) \
        and cold["mse"] < 10.0

    wall = time.perf_counter() - t0
    ok = n1_equal and naive_ok and cold_ok and wall < 120.0
    _verdict(9, "sampler comparison direction", ok,
             f"N=1 equal: {n1_equal}, naive gaps {gaps[0]:+.1e}/{gaps[1]:+.1e}"
             f" at N=100/1000, cold mse {cold['mse']:.3f} "
             f"divergent={cold['divergent']}, {wall:.1f}s")


def test_criterion_10_step_tradeoff_direction():
    """Sweeping the step count on the Gaussian world: distortion is
    minimized at N=1 while the distributional statistic at N >= 50 is
    strictly below its N=1 value."""
    t0 = time.perf_counter()
    report = run_experiment(default_config("sweep_steps"), write=False)
    mse = {row["N"]: row["mse"] for row in report.rows}
    ks = {row["N"]: row["ks"] for row in report.rows}
    mse_min_at_1 = min(mse, key=mse.get) == 1
    ks_improves = all(ks[n] < ks[1] for n in ks if n >= 50)
    wall = time.perf_counter() - t0
    ok = mse_min_at_1 and ks_improves and wall < 60.0
    _verdict(10, "step-count tradeoff direction", ok,
             f"mse argmin N={min(mse, key=mse.get)}, "
             f"ks N>=50 all < ks(1)={ks[1]:.4f}: {ks_improves}, {wall:.1f}s")


def test_criterion_11_byte_reproducibility(tmp_path):
    """Identical config and seed produce byte-identical CSV reports."""
    t0 = time.perf_counter()
    cfg = default_config("toy2d_a")
    first = dict(cfg, out_dir=str(tmp_path / "first"))
    second = dict(cfg, out_dir=str(tmp_path / "second"))
    run_experiment(first)
    run_experiment(second)
    a = (tmp_path / "first" / "toy2d_a.csv").read_bytes()
    b = (tmp_path / "second" / "toy2d_a.csv").read_bytes()
    wall = time.perf_counter() - t0
    ok = a == b and len(a) > 0
    _verdict(11, "byte reproducibility", ok,
             f"two runs, {len(a)} bytes each, identical: {a == b}, "
             f"{wall:.1f}s")


def test_criterion_12_trained_end_to_end():
    """A regressor trained from scratch on the 2-d toy world drives the
    sampler to within 5e-2 of a mode for at least 90% of fresh inputs at
    N=100, on one core, inside ten minutes."""
    t0 = time.perf_counter()
    report = run_experiment(default_config("train_restore"), write=False)
    row = report.rows[0]
    wall = time.perf_counter() - t0
    ok = row["mode_hit_rate"] >= 0.90 and row["divergent"] == 0 \
        and wall < 600.0
    _verdict(12, "trained end-to-end restore", ok,
             f"hit rate {row['mode_hit_rate']:.3f} at N={row['N']} "
             f"(threshold 5e-2), loss {row['loss_initial']:.3f} -> "
             f"{row['loss_final']:.3f}, {wall:.0f}s of 600s")
