import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from restep.degradation import (
    BrownianSchedule,
    ConstantSchedule,
    TableSchedule,
    schedule_epsilon,
)
from restep.oracles import (
    GaussianDenoisingOracle,
    GaussianMixturePrior,
    GaussianPrior,
    LinearDegradation,
    MixturePosteriorOracle,
    _FAR_LOG,
    _mode_distances_sq,
    _nearest,
    _sum_axis,
    gaussian_flow_trajectory,
    gaussian_posterior_mean,
    mixture_posterior_mean,
    posterior_mean_at_s,
)
from restep.worlds import GaussianWorld, MixtureWorld


def two_point_prior():
    return GaussianMixturePrior(modes=[[-1.0], [1.0]], weights=[0.5, 0.5])


def random_mixture(rng, dim, n_modes):
    modes = rng.normal(scale=2.0, size=(n_modes, dim))
    w = rng.uniform(0.2, 1.0, size=n_modes)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()   # exact unit sum
    return GaussianMixturePrior(modes=modes, weights=w)


def tie_margin(row, near, rival, modes) -> Fraction:
    """The tie margin of the nearest-centre rule, in Fractions: 2^-40 |C_i - C_r|_1
    (|x|_1 + |C_r|_1 + |C_i|_1), with |C_i - C_r|_1 taken as at least 2^-950 of the
    largest |mode| entry.  A rival whose (d_i^2 - d_r^2) / 2 lies within it is within
    the rule's rounding: the row is within about 2^-40 of the pair's size from their
    bisector, or the modes are closer than the rule resolves in a set spanning 2^950."""
    apart = sum(abs(Fraction(p) - Fraction(q)) for p, q in zip(rival, near))
    size = sum(abs(Fraction(p)) for v in (row, near, rival) for p in v)
    return max(apart, Fraction(np.abs(modes).max()) / 2**950) * size / 2**40


@st.composite
def scaled_mode_sets(draw):
    """``(modes, rows)``: 2 to 6 modes in 1 to 3 dimensions about a common centre
    at scale 2^k, k in [-1000, 1000], spread by 2^-s of it, s in [0, 40], and 1
    to 6 rows spread as much among them, or 2^1 to 2^2000 farther out, or
    within 2^-s' of the spread, s' in [0, 60], of two modes' midpoint."""
    m, d = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    k, s = draw(st.integers(-1000, 1000)), draw(st.integers(0, 40))
    unit = st.floats(-1.0, 1.0)
    base = draw(arrays(np.float64, d, elements=unit))
    modes = np.ldexp(base + np.ldexp(draw(arrays(np.float64, (m, d), elements=unit)), -s), k)
    offsets = draw(arrays(np.float64, (draw(st.integers(1, 6)), d), elements=unit))
    where = draw(st.sampled_from(["among", "far", "bisector"]))
    if where == "far":
        return modes, np.ldexp(offsets, min(k + draw(st.integers(1, 2000)), 1022))
    if where == "bisector":
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        mid = modes[i] / 2 + modes[j] / 2
        return modes, mid + np.ldexp(offsets, k - s - draw(st.integers(0, 60)))
    return modes, np.ldexp(base + np.ldexp(offsets, -s), k)


def _table_centres(prior, deg, t):
    """The centres (1 - t) c_i + t D_i over the table D = C H^T of degraded modes."""
    return (1.0 - t) * prior.modes + t * (prior.modes @ deg.H.T)


def _reference_log_terms(prior, deg, x_t, t, extra_noise_std):
    """log(w_i) - ||u_i||^2 / 2 as first written, modes on the last axis, with the
    oracle's table-form centres."""
    sigma_t = t * float(np.hypot(deg.sigma, extra_noise_std))
    centers = _table_centres(prior, deg, t)
    u = (x_t[..., None, :] - centers) / sigma_t
    with np.errstate(divide="ignore"):
        log_w = np.log(prior.weights)
    return log_w - 0.5 * np.sum(u * u, axis=-1)


def _reference_mixture_posterior_mean(prior, deg, x_t, t, extra_noise_std):
    """The posterior mean as first written, with numpy's own reductions."""
    log_terms = _reference_log_terms(prior, deg, x_t, t, extra_noise_std)
    post = np.exp(log_terms - np.max(log_terms, axis=-1, keepdims=True))
    post /= np.sum(post, axis=-1, keepdims=True)
    return post @ prior.modes


class TestMixturePosteriorMean:
    def test_frozen_two_point_value(self):
        """Hand-computed Bayes over two atoms at t = 0.5, x_t = 0.5:
        the posterior mean is tanh(2) = 0.9640275800758169."""
        prior = two_point_prior()
        deg = LinearDegradation(H=[[1.0]], sigma=1.0)
        got = mixture_posterior_mean(MixtureWorld(prior, deg), np.array([0.5]), 0.5)
        assert_allclose(got, [0.9640275800758169], rtol=0, atol=1e-12)

    def test_matches_tanh_closed_form_on_grid(self):
        # Symmetric unit modes admit E[x|x_t] = tanh(H_t x_t / sigma_t^2).
        prior = two_point_prior()
        deg = LinearDegradation(H=[[1.0]], sigma=0.8)
        for t in (0.2, 0.5, 0.9, 1.0):
            h_t = 1.0   # (1-t) + t for the identity observation
            sigma_t = t * 0.8
            xs = np.linspace(-3.0, 3.0, 41)[:, None]
            got = mixture_posterior_mean(MixtureWorld(prior, deg), xs, t)
            want = np.tanh(h_t * xs / sigma_t**2)
            assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_monte_carlo_bayes_agreement(self):
        """Binned conditional mean from forward simulation agrees with the
        analytic posterior mean within 3 standard errors."""
        prior = two_point_prior()
        deg = LinearDegradation(H=[[1.0]], sigma=1.0)
        t, x_query = 0.5, 0.5
        rng = np.random.default_rng(0)
        n = 1_000_000
        x = rng.choice([-1.0, 1.0], size=n)
        y = x + 1.0 * rng.standard_normal(n)
        x_t = (1 - t) * x + t * y
        mask = np.abs(x_t - x_query) < 0.005
        mc_mean = x[mask].mean()
        se = x[mask].std(ddof=1) / np.sqrt(mask.sum())
        analytic = mixture_posterior_mean(MixtureWorld(prior, deg), np.array([x_query]), t)[0]
        assert abs(mc_mean - analytic) < 3.0 * se + 0.005

    @pytest.mark.parametrize("sigma", [0.6, 0.0])
    def test_batch_matches_single_calls(self, sigma):
        """Bit for bit, in a batch mixing rows near the modes with the same rows
        moved 1e6 along the normal v to every C_i - C_0, past the far-field radius
        of 2^16 sigma_t (at sigma_t = 0 every row is far), and a row at 1e300.
        Moving along v changes no gap, so the moved rows keep their weights.  The
        modes are 2 e_i: the final product has the weights' bits whichever kernel
        matmul picks for the batch's shape."""
        rng = np.random.default_rng(5)
        prior = GaussianMixturePrior(2.0 * np.eye(4), random_mixture(rng, 1, 4).weights)
        deg = LinearDegradation(H=rng.normal(size=(4, 4)), sigma=sigma)
        centers = _table_centres(prior, deg, 0.7)
        v = np.linalg.svd(centers[1:] - centers[0])[2][-1]
        near = rng.normal(size=(4, 4))
        xs = np.vstack([near, near + 1e6 * v, 1e300 * rng.normal(size=(1, 4))])
        world = MixtureWorld(prior, deg)
        batch = mixture_posterior_mean(world, xs, 0.7)
        for i, row in enumerate(xs):
            assert batch[i].tobytes() == mixture_posterior_mean(world, row, 0.7).tobytes()
        assert_allclose(batch[4:8], batch[:4], rtol=1e-6, atol=1e-12)

    def test_zero_weight_mode_never_contributes(self):
        prior = GaussianMixturePrior(
            modes=[[0.0], [100.0]], weights=[1.0, 0.0]
        )
        deg = LinearDegradation(H=[[1.0]], sigma=1.0)
        got = mixture_posterior_mean(MixtureWorld(prior, deg), np.array([50.0]), 1.0)
        assert_allclose(got, [0.0], atol=1e-12)

    @pytest.mark.parametrize("x", [1e8, 1e15, 1e16, 1e150, 1e155, 1e300, np.finfo(float).max])
    def test_far_field_snaps_to_nearest_mode_without_nan(self, x):
        """Where the squared distances tie (from 1e16) or overflow (from
        1e154) the mode-relative terms still pick the closer mode."""
        prior = two_point_prior()
        deg = LinearDegradation(H=[[1.0]], sigma=1.0)
        got = mixture_posterior_mean(MixtureWorld(prior, deg), np.array([[x], [-x]]), 0.5)
        assert_array_equal(got, [[1.0], [-1.0]])

    @pytest.mark.parametrize("mode, x", [(1e155, 3e154), (1e300, 1.0), (1e300, 1e-30),
                                         (1e308, 1e-300)])
    def test_far_field_keeps_huge_modes_apart(self, mode, x):
        """Where ||C_i||^2 overflows, the centre terms are scaled too: modes
        +-1e155 at x_t = +-3e154 and +-1e300 at x_t = +-1 were [nan]."""
        prior = GaussianMixturePrior(modes=[[-mode], [mode]], weights=[0.5, 0.5])
        deg = LinearDegradation(H=[[1.0]], sigma=1.0)
        got = mixture_posterior_mean(MixtureWorld(prior, deg), np.array([[x], [-x]]), 0.5)
        assert_array_equal(got, [[mode], [-mode]])

    def test_far_field_zero_weight_mode_never_contributes(self):
        """The closest mode has weight 0, so the next one takes the row."""
        prior = GaussianMixturePrior(modes=[[1e300], [0.0], [-1e300]], weights=[0.0, 0.5, 0.5])
        deg = LinearDegradation(H=[[1.0]], sigma=1.0)
        got = mixture_posterior_mean(MixtureWorld(prior, deg),
                                     np.array([[1e300], [1e20], [-9e299]]), 0.5)
        assert_array_equal(got, [[0.0], [0.0], [-1e300]])

    def test_far_field_keeps_the_blend_on_a_bisector(self):
        """Far out along the line equidistant from two modes the posterior
        weights are the prior's, however far the row is."""
        prior = GaussianMixturePrior(modes=[[1.0, 0.0], [-1.0, 0.0]], weights=[0.25, 0.75])
        deg = LinearDegradation(H=np.eye(2), sigma=1.0)
        got = mixture_posterior_mean(MixtureWorld(prior, deg),
                                     np.array([[0.0, 1e200], [0.0, -1e300]]), 0.5)
        assert_allclose(got, [[-0.5, 0.0], [-0.5, 0.0]], rtol=1e-15, atol=0.0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), h=st.floats(0.5, 2.0), t=st.floats(0.05, 1.0),
           sigma=st.floats(0.1, 2.0), x=st.floats(allow_nan=False, allow_infinity=False))
    def test_far_field_takes_the_mode_with_the_largest_relative_log_term(
            self, data, h, t, sigma, x):
        """Any finite x_t and modes up to +-1e300 give a finite mean.  Beyond
        the far-field radius it is the mode whose log term, gap_i / sigma_t^2 +
        log w_i with gap_i = (d_r^2 - d_i^2) / 2, is largest, wherever that term
        leads the others by enough to take every bit of the weight.  The terms
        are taken here in exact arithmetic relative to mode 0, (x (C_i - C_0) -
        (C_i^2 - C_0^2) / 2) / sigma_t^2 + log w_i, which differ from them by
        the same constant for every mode."""
        modes = data.draw(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=4, unique=True))
        raw = np.array(data.draw(st.lists(st.integers(1, 9), min_size=len(modes),
                                          max_size=len(modes))), dtype=float)
        prior = GaussianMixturePrior(np.array(modes)[:, None], raw / raw.sum())
        deg = LinearDegradation([[h]], sigma)
        got = mixture_posterior_mean(MixtureWorld(prior, deg), np.array([x]), t)
        assert np.isfinite(got).all()
        with np.errstate(over="ignore"):
            top = np.max(_reference_log_terms(prior, deg, np.array([x]), t, 0.0))
        if top < -_FAR_LOG:
            centers = [Fraction(c) for c in _table_centres(prior, deg, t)[:, 0]]
            sigma_sq = Fraction(t * sigma) ** 2
            terms = [(Fraction(x) * (c - centers[0]), (c * c - centers[0] ** 2) / 2)
                     for c in centers]
            rel = [(a - b) / sigma_sq + Fraction(float(np.log(w)))
                   for (a, b), w in zip(terms, prior.weights)]
            # the mode is exact once the runner-up's weight is below exp(-746),
            # with room for float64 rounding of the largest term
            size = max(abs(a) + abs(b) for a, b in terms) / sigma_sq
            first, second = sorted(rel)[-1], sorted(rel)[-2]
            if first - second > 746 + size / 2**40:
                assert got[0] == prior.modes[rel.index(first), 0]

    def test_extra_noise_matches_inflated_sigma_world(self):
        """Schedule noise folded in via extra_noise_std must equal a world
        whose observation noise is sqrt(sigma^2 + eps^2)."""
        rng = np.random.default_rng(9)
        prior = random_mixture(rng, dim=2, n_modes=3)
        xs = rng.normal(size=(6, 2))
        H = np.eye(2)
        sigma, eps, t = 0.5, 0.3, 0.6
        via_extra = mixture_posterior_mean(
            MixtureWorld(prior, LinearDegradation(H, sigma)), xs, t, extra_noise_std=eps
        )
        via_sigma = mixture_posterior_mean(
            MixtureWorld(prior, LinearDegradation(H, float(np.hypot(sigma, eps)))), xs, t
        )
        assert_allclose(via_extra, via_sigma, rtol=1e-14)

    def test_time_zero_is_the_nearest_mode(self):
        """At t = 0 the centres are the modes and sigma_t = 0: a row on a mode returns
        that mode exactly, and a row equidistant from modes returns their w-weighted
        mean.  So do modes at +-1e308 under H = diag(3, 1), whose degraded modes
        overflow: (1 - t) c_i + t D_i would be 0 * inf = nan there."""
        prior = GaussianMixturePrior([[-1.0, 0.0], [1.0, 0.0], [0.3, 5.0]], [0.25, 0.5, 0.25])
        deg = LinearDegradation(H=[[2.0, 1.0], [0.0, -3.0]], sigma=1.0)
        rows = np.array([[-1.0, 0.0], [1.0, 0.0], [0.3, 5.0], [0.0, -1.0], [0.9, 0.1]])
        got = mixture_posterior_mean(MixtureWorld(prior, deg), rows, 0.0)
        assert_array_equal(got[:3], prior.modes)
        assert_allclose(got[3], [1 / 3, 0.0], rtol=1e-15, atol=0.0)
        assert_array_equal(got[4], [1.0, 0.0])
        huge = GaussianMixturePrior([[1e308, 0.0], [-1e308, 0.0]], [0.5, 0.5])
        world = MixtureWorld(huge, LinearDegradation([[3.0, 0.0], [0.0, 1.0]], 1.0))
        got = mixture_posterior_mean(world, huge.modes, 0.0)
        assert got.tobytes() == huge.modes.tobytes()

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match=r"^weights must sum to 1 within 1e-12$"):
            GaussianMixturePrior([[0.0], [1.0]], [0.5, 0.5 + 2e-12])
        GaussianMixturePrior([[0.0], [1.0]], [0.5, 0.5 + 5e-13])

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_noiseless_empty_batch(self, sigma):
        world = MixtureWorld(two_point_prior(), LinearDegradation([[1.0]], sigma))
        got = mixture_posterior_mean(world, np.zeros((0, 1)), 0.5)
        assert got.shape == (0, 1)

    @pytest.mark.parametrize("t", [1e-3, 0.1, 0.3, 1.0])
    def test_centres_that_overflow_raise_no_warning(self, t):
        """Modes at +-1e308 under H = diag(3, 1): the degraded modes D overflow,
        which warned in the matmul, and at any t > 0 the term t D_i is inf, so
        the mean is non-finite (it is finite wherever D is finite, and at t = 0).
        Centres taken through the blended matrix (1 - t) I + t H were finite at
        t 1e-3, 0.1 and 0.3, where the mean read [0, 0]."""
        prior = GaussianMixturePrior([[1e308, 0.0], [-1e308, 0.0]], [0.5, 0.5])
        world = MixtureWorld(prior, LinearDegradation([[3.0, 0.0], [0.0, 1.0]], 1.0))
        got = mixture_posterior_mean(world, np.array([0.0, 0.0]), t)
        assert not np.isfinite(got).all()

    def test_noiseless_posterior_keeps_close_modes_apart(self):
        """Modes 1 + 3e-9 and 1 - 1e-9 from the row 1: the far field formed
        x (C_i - C_0) - (C_i^2 - C_0^2) / 2 from terms of size 1, whose
        rounding swamped the gap of 4e-18, and returned the farther mode."""
        prior = GaussianMixturePrior([[1 + 3e-9], [1 - 1e-9]], [0.5, 0.5])
        world = MixtureWorld(prior, LinearDegradation([[1.0]], 0.0))
        got = mixture_posterior_mean(world, np.array([1.0]), 1.0)
        assert got.tolist() == [1 - 1e-9]

    @settings(max_examples=200, deadline=None)
    @given(case=scaled_mode_sets())
    @example(case=(np.array([[1 + 3e-9], [1 - 1e-9]]), np.array([[1.0]])))
    @example(case=(np.array([[-1.0], [0.0]]), np.array([[2.0**53]])))
    @example(case=(np.array([[1.0], [2.0**-60], [2.0**-120], [0.0]]),
                   np.array([[-2.0**200], [-1.0]])))
    @example(case=(np.array([[1.43304907e-196], [0.0], [1.32348898e-23]]), np.array([[0.0]])))
    def test_nearest_is_the_exactly_nearest_centre(self, case):
        """The shared nearest-centre rule, and the sigma_t = 0 oracle's mode,
        against exact Fraction distances, wherever no rival is within the tie
        margin of :func:`tie_margin`: modes and rows at common scales 2^-1000
        to 2^1000 with relative spreads down to 2^-40, and rows far from a tiny
        mode set.  The pinned rows are fault (a)'s; one 1 from mode 1 and
        2^53 + 1 from mode 0, whose distances round to one float; one far
        from a set nested three deep, whose first pick moves three times; and
        0 on a set below 2^-74, whose frame's floor underflowed to 0."""
        modes, rows = case
        prior = GaussianMixturePrior(modes, np.full(len(modes), 1.0 / len(modes)))
        picks = _nearest(rows, modes)[0]
        world = MixtureWorld(prior, LinearDegradation(np.eye(modes.shape[1]), 0.0))
        outs = mixture_posterior_mean(world, rows, 1.0)
        for row, pick, out in zip(rows, picks, outs):
            exact = [sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(row, mode))
                     for mode in modes]  # squared distances; the centres are the modes
            nearest = exact.index(min(exact))
            if any(exact[i] - exact[nearest] <= 2 * tie_margin(row, modes[nearest], mode, modes)
                   for i, mode in enumerate(modes) if i != nearest):
                continue
            assert pick == nearest
            assert_array_equal(out, modes[nearest])

    @pytest.mark.parametrize("sigma, x, want", [
        (0.0, 0.5, 1.0), (0.0, -1e-300, -1.0), (0.0, 0.0, 0.0), (0.0, 1e300, 1.0),
        (5e-324, 0.25, 1.0),  # t * 5e-324 rounds to 0
    ])
    def test_noiseless_posterior_is_the_nearest_mode(self, sigma, x, want):
        """At sigma_t = 0 the posterior is a point mass on the nearest mode;
        a row equidistant from two modes keeps their prior blend."""
        world = MixtureWorld(two_point_prior(), LinearDegradation([[1.0]], sigma))
        got = mixture_posterior_mean(world, np.array([x]), 0.5)
        assert_array_equal(got, [want])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(2, 6), d=st.integers(1, 3),
           t=st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.0, 1.0, exclude_min=True)))
    def test_noiseless_posterior_is_the_limit_of_the_nearest_centres(self, data, m, d, t):
        """At sigma_t = 0 a row gets the w-weighted mean of the positive-weight
        modes whose centre H_t c_i is nearest (exactly, in Fractions), modes on a
        shared centre included, wherever every other centre is farther by more
        than 2^-30 of the squared scale; the outputs at sigma_t = t 2^-k tend to it."""
        ints = st.integers(-3, 3).map(float)
        modes = data.draw(arrays(np.float64, (m, d), elements=ints))
        raw = np.array(data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)
                                 .filter(any)), dtype=float)
        prior = GaussianMixturePrior(modes, raw / raw.sum())
        H = data.draw(arrays(np.float64, (d, d), elements=st.sampled_from(
            [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])))
        deg = LinearDegradation(H, 0.0)
        centers = _table_centres(prior, deg, t)  # as the oracle computes them
        on_centre = data.draw(st.lists(st.integers(0, m - 1), max_size=3))
        rows = np.vstack([centers[on_centre], data.draw(
            arrays(np.float64, (data.draw(st.integers(int(not on_centre), 3)), d),
                   elements=st.floats(-4.0, 4.0)))])
        got = mixture_posterior_mean(MixtureWorld(prior, deg), rows, t)
        live = np.flatnonzero(prior.weights)
        for row, out in zip(rows, got):
            dist_sq = {i: sum((Fraction(a) - Fraction(c)) ** 2 for a, c in zip(row, centers[i]))
                       for i in live}
            nearest = min(dist_sq.values())
            group = [i for i in live if dist_sq[i] == nearest]
            gap = min((v - nearest for v in dist_sq.values() if v > nearest), default=None)
            margin = Fraction(max(np.abs(centers).max(), np.abs(row).max())) ** 2 / 2**30
            if len({centers[i].tobytes() for i in group}) > 1 or (gap is not None
                                                                 and gap <= margin):
                continue  # distinct centres tie, or one is within rounding of the nearest
            w = prior.weights[group]
            if len(group) == 1:
                assert_array_equal(out, prior.modes[group[0]])
            else:
                assert_allclose(out, w @ prior.modes[group] / w.sum(), rtol=1e-14, atol=1e-14)
            if gap is None:
                continue
            # sigma_t^2 <= gap / 128 leaves the runner-up a weight below 4 e^-64.  Inside
            # the far-field radius the log terms round to ulp(||u||^2 / 2), and so does
            # the blend of modes that share a centre, so such a row off its centre is
            # taken past the radius: ||u||^2 / 2 >= 2^32.
            bound = gap / 128 if len(group) == 1 or nearest == 0 else min(gap / 128,
                                                                            nearest / 2**33)
            k = max(0, math.ceil(math.log2(t) - (math.log2(bound.numerator)
                                                 - math.log2(bound.denominator)) / 2))
            for j in (k, k + 8, k + 32):
                noisy = MixtureWorld(prior, LinearDegradation(H, math.ldexp(1.0, -j)))
                approx = mixture_posterior_mean(noisy, row, t)
                assert_allclose(approx, out, rtol=0.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(),
           dm=st.one_of(st.tuples(st.integers(1, 10), st.integers(1, 9)),
                        st.tuples(st.just(1), st.integers(10, 140))),
           t=st.one_of(st.just(1.0), st.floats(0.01, 1.0)), sigma=st.floats(0.01, 3.0),
           extra=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
           lead=st.sampled_from([(), (1,), (20,), (257,), (3, 5)]))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference's squares that overflow
    def test_mixture_posterior_mean_keeps_every_bit(self, data, dm, t, sigma, extra, lead):
        """Against the formula with numpy's reductions, for vectors and
        batches, zero-weight modes and schedule noise, on every row inside
        the far-field radius (the tests above cover the rows beyond it);
        past 8 and 128 modes numpy's pairwise sum works in blocks.  At t = 1
        the centres are the table D itself."""
        d, m = dm
        coords = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e150, 1e150))
        modes = data.draw(arrays(np.float64, (m, d), elements=coords))
        raw = data.draw(arrays(np.float64, m, elements=st.sampled_from([0.0, 0.3, 1.0, 2.5])))
        raw[data.draw(st.integers(0, m - 1))] = 1.0
        prior = GaussianMixturePrior(modes, raw / raw.sum())
        H = data.draw(arrays(np.float64, (d, d), elements=st.floats(-2.0, 2.0)))
        deg = LinearDegradation(H, sigma)
        x_t = data.draw(arrays(np.float64, lead + (d,), elements=coords))
        got = mixture_posterior_mean(MixtureWorld(prior, deg), x_t, t, extra_noise_std=extra)
        want = _reference_mixture_posterior_mean(prior, deg, x_t, t, extra)
        assert got.shape == want.shape
        near = ~(np.max(_reference_log_terms(prior, deg, x_t, t, extra), axis=-1) < -_FAR_LOG)
        assert got[near].tobytes() == want[near].tobytes()


@st.composite
def short_axis_sums(draw):
    """An array of any floats to sum over its first axis; in half the draws
    the first sum's every term is -0.0."""
    n = draw(st.integers(1, 12))
    lead = draw(st.sampled_from([(), (1,), (37,), (9, 3)]))
    a = draw(arrays(np.float64, (n,) + lead, elements=st.floats(width=64)))
    if draw(st.booleans()):
        a[(slice(None),) + (0,) * len(lead)] = -0.0
    return a


class TestShortAxisSum:
    @settings(max_examples=120, deadline=None)
    @given(a=short_axis_sums())
    @example(a=np.full((4, 3), -0.0))
    @example(a=np.array([[-0.0, -0.0], [-0.0, -0.0], [0.0, -0.0]]))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf and the like
    def test_sum_is_numpys_bit_for_bit(self, a):
        """Over the first axis, np.sum of that axis laid out last and
        contiguous: left to right below 8 terms, numpy's own sum from 8 up;
        signed zeros, infinities and nan included.  The one exception is a
        sum of 2 to 7 terms that are all -0.0: numpy's starts from +0.0 and
        gives 0.0, the helper's from the first two terms and gives -0.0."""
        got = np.asarray(_sum_axis(a))
        want = np.array(np.sum(np.ascontiguousarray(np.moveaxis(a, 0, -1)), axis=-1))
        assert got.shape == want.shape
        if 1 < a.shape[0] < 8:
            want[np.all((a == 0.0) & np.signbit(a), axis=0)] = -0.0
        nan = np.isnan(want)
        assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), d=st.integers(1, 12), m=st.integers(1, 12), n=st.integers(0, 9),
           scale=st.floats(1e-150, 1e150))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # squares that overflow
    def test_mode_distances_keep_the_bits_of_a_transposed_copy(self, data, d, m, n, scale):
        """||(x_j - c_i) / scale||^2 at any scale, squares that overflow
        included, has the bits of the block built from a contiguous copy of
        x.T and summed by np.sum over a contiguous copy; past 8 coordinates
        numpy's pairwise sum works in blocks."""
        coords = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e200, 1e200))
        x = data.draw(arrays(np.float64, (n, d), elements=coords))
        centers = data.draw(arrays(np.float64, (m, d), elements=coords))
        got = _mode_distances_sq(x, centers, scale)
        u = (np.ascontiguousarray(x.T)[:, None, :] - centers.T[:, :, None]) / scale
        want = np.sum(np.ascontiguousarray(np.moveaxis(u * u, 0, -1)), axis=-1)
        assert got.shape == want.shape == (m, n)
        assert got.tobytes() == want.tobytes()

class TestSlideToS:
    def test_identity_against_per_atom_average(self):
        """Independent route: average the pathwise per-atom answers
        (1 - s/t) c_i + (s/t) x_t under the posterior weights and compare
        with the affine identity applied to the posterior mean."""
        rng = np.random.default_rng(13)
        for _ in range(50):
            dim = rng.integers(1, 4)
            prior = random_mixture(rng, dim=dim, n_modes=int(rng.integers(2, 6)))
            deg = LinearDegradation(H=rng.normal(size=(dim, dim)), sigma=0.9)
            x_t = rng.normal(scale=1.5, size=dim)
            t = rng.uniform(0.1, 1.0)
            s = rng.uniform(0.0, t)
            # posterior weights, recomputed here by direct Bayes
            h_t = (1.0 - t) * np.eye(dim) + t * deg.H
            u = (x_t - prior.modes @ h_t.T) / (t * 0.9)
            logp = np.log(prior.weights) - 0.5 * np.sum(u * u, axis=1)
            p = np.exp(logp - logp.max())
            p /= p.sum()
            atomwise = p @ ((1.0 - s / t) * prior.modes + (s / t) * x_t)
            pm = mixture_posterior_mean(MixtureWorld(prior, deg), x_t, t)
            got = posterior_mean_at_s(pm, x_t, s, t)
            assert_allclose(got, atomwise, rtol=1e-10, atol=1e-10)

    def test_endpoints(self):
        pm = np.array([1.0, 2.0])
        x_t = np.array([3.0, 4.0])
        assert_allclose(posterior_mean_at_s(pm, x_t, 0.0, 0.5), pm)
        assert_allclose(posterior_mean_at_s(pm, x_t, 0.5, 0.5), x_t)

    def test_monte_carlo_conditional_mean(self):
        """E[x_s | x_t] from the identity is mean-unbiased against brute
        force: residuals binned at x_t average to zero within 3 SE."""
        rng = np.random.default_rng(2)
        n = 400_000
        sigma, t, s = 1.0, 0.6, 0.3
        x = rng.choice([-1.0, 1.0], size=n)
        y = x + sigma * rng.standard_normal(n)
        x_t = (1 - t) * x + t * y
        x_s = (1 - s) * x + s * y
        mask = np.abs(x_t - 0.4) < 0.01
        prior = two_point_prior()
        deg = LinearDegradation(H=[[1.0]], sigma=sigma)
        pm = mixture_posterior_mean(MixtureWorld(prior, deg), np.array([0.4]), t)
        pred = posterior_mean_at_s(pm, np.array([0.4]), s, t)[0]
        resid = x_s[mask] - pred
        se = resid.std(ddof=1) / np.sqrt(mask.sum())
        assert abs(resid.mean()) < 3.0 * se + 0.01

    @settings(max_examples=300, deadline=None)
    @given(
        c=st.floats(-100.0, 100.0), sigma_c=st.floats(1e-3, 1e3),
        sigma_n=st.floats(1e-3, 1e3), t=st.floats(1e-3, 1.0), frac=st.floats(0.0, 1.0),
        x_t=st.floats(-1e3, 1e3),
    )
    def test_gaussian_slide_is_the_joint_gaussian_conditional_mean(
        self, c, sigma_c, sigma_n, t, frac, x_t,
    ):
        """In the Gaussian world x_s = x + s n and x_t = x + t n are jointly
        Gaussian, so E[x_s | x_t] = c + cov(x_s, x_t) / var(x_t) (x_t - c)
        with cov = sigma_c^2 + s t sigma_n^2 and var = sigma_c^2 + t^2
        sigma_n^2, a route that uses nothing from the package."""
        s = frac * t
        prior = GaussianPrior(c=[c], sigma_c=sigma_c)
        pm = gaussian_posterior_mean(GaussianWorld(prior, sigma_n), np.array([x_t]), t)
        got = posterior_mean_at_s(pm, np.array([x_t]), s, t)[0]
        vc, vn = sigma_c**2, sigma_n**2
        want = c + (vc + s * t * vn) / (vc + t * t * vn) * (x_t - c)
        # the floor covers subnormal inputs, which carry fewer significant bits
        assert abs(got - want) <= 1e-12 * (abs(x_t - c) + abs(c)) + 1e-300

    def test_geometry_validation(self):
        pm = np.zeros(2)
        with pytest.raises(ValueError):
            posterior_mean_at_s(pm, pm, 0.6, 0.5)   # s > t
        with pytest.raises(ValueError):
            posterior_mean_at_s(pm, pm, 0.0, 0.0)   # t = 0


class TestGaussianWorldForms:
    def test_frozen_posterior_mean_at_t_one(self):
        prior = GaussianPrior(c=[0.0], sigma_c=1.0)
        got = gaussian_posterior_mean(GaussianWorld(prior, 1.0), np.array([2.0]), 1.0)
        assert_allclose(got, [1.0], rtol=1e-15)

    def test_posterior_mean_is_identity_at_t_zero(self):
        prior = GaussianPrior(c=[0.3], sigma_c=0.5)
        x = np.array([1.7])
        assert_allclose(gaussian_posterior_mean(GaussianWorld(prior, 2.0), x, 0.0), x)

    def test_posterior_mean_is_the_prior_mean_when_the_noise_variance_overflows(self):
        """t^2 (sigma_n^2 + eps^2) overflows to inf: the weight on x_t tends to
        0, so the mean is c (it was inf / inf = nan)."""
        oracle = GaussianWorld(GaussianPrior([0.0], 1.0), 0.5).oracle(BrownianSchedule(1e160))
        assert_array_equal(oracle(np.array([0.3]), 0.5), [0.0])
        prior = GaussianPrior(c=[0.5, -2.0], sigma_c=1.0)
        x = np.array([[0.3, 1.0], [4.0, -1.0], [0.0, 0.0]])
        got = gaussian_posterior_mean(GaussianWorld(prior, 1e200), x, 0.5)
        assert_array_equal(got, np.broadcast_to(prior.c, x.shape))
        got[0, 0] = 9.0  # a fresh array, not a view of the prior
        assert_array_equal(prior.c, [0.5, -2.0])

    def test_posterior_mean_is_x_t_when_the_prior_variance_overflows(self):
        """sigma_c^2 overflows to inf: the weight on c tends to 0, so the mean
        is x_t itself (it was inf / inf = nan)."""
        prior = GaussianPrior(c=[0.5], sigma_c=1e200)
        x = np.array([[0.3], [-7.0]])
        for t in (0.25, 1.0):
            got = gaussian_posterior_mean(GaussianWorld(prior, 0.5), x, t, extra_noise_std=1e3)
            assert_array_equal(got, x)
            assert got is not x

    @pytest.mark.parametrize("sigma_n, extra", [(1e200, 0.0), (1.0, 1e200), (1e200, 1e200)])
    def test_posterior_mean_is_identity_at_t_zero_when_the_noise_variance_overflows(
        self, sigma_n, extra,
    ):
        """At t = 0 the noise variance t^2 (sigma_n^2 + eps^2) is 0 however
        large sigma_n is, so the mean is x_t, bit for bit as with a finite
        sigma_n (0 * inf made it nan)."""
        x = np.array([[0.3], [-7.0]])
        for prior in (GaussianPrior(c=[0.5], sigma_c=1.0), GaussianPrior(c=[0.5], sigma_c=1e200)):
            got = gaussian_posterior_mean(GaussianWorld(prior, sigma_n), x, 0.0, extra)
            want = gaussian_posterior_mean(GaussianWorld(prior, 1.0), x, 0.0)
            assert got.tobytes() == want.tobytes()
            assert_array_equal(got, x)

    def test_posterior_mean_is_nan_when_both_variances_overflow(self):
        """Both limits compete; the nan is kept so samplers flag the row."""
        prior = GaussianPrior(c=[0.5], sigma_c=1e200)
        got = gaussian_posterior_mean(GaussianWorld(prior, 1e200), np.array([0.3]), 0.5)
        assert np.isnan(got).all()

    def test_frozen_flow_values(self):
        """c = 0, sigma_c = sigma_n = 1, y = 2: the closed-form trajectory
        passes through sqrt(2.5) at t = 0.5 and ends at sqrt(2)."""
        prior = GaussianPrior(c=[0.0], sigma_c=1.0)
        y = np.array([2.0])
        assert_allclose(gaussian_flow_trajectory(GaussianWorld(prior, 1.0), y, 1.0), [2.0])
        assert_allclose(
            gaussian_flow_trajectory(GaussianWorld(prior, 1.0), y, 0.5),
            [1.5811388300841898], rtol=1e-15,
        )
        assert_allclose(
            gaussian_flow_trajectory(GaussianWorld(prior, 1.0), y, 0.0),
            [1.4142135623730951], rtol=1e-15,
        )

    @pytest.mark.parametrize("sigma_c, sigma_n", [(1.0, 1e-300), (1e300, 1.0)])
    def test_flow_is_the_observation_when_alpha_squared_overflows(self, sigma_c, sigma_n):
        """(sigma_c / sigma_n)^2 overflows to inf; the scale
        sqrt((t^2 + alpha^2) / (1 + alpha^2)) tends to 1, so the trajectory
        stays at y instead of becoming inf / inf = nan."""
        prior = GaussianPrior(c=[0.5], sigma_c=sigma_c)
        y = np.array([2.0])
        for t in (0.0, 0.5, 1.0):
            assert_array_equal(gaussian_flow_trajectory(GaussianWorld(prior, sigma_n), y, t), y)

    @pytest.mark.parametrize("form", [gaussian_posterior_mean, gaussian_flow_trajectory])
    def test_a_batch_of_the_wrong_width_is_refused(self, form):
        """A (2, 1) batch against a 2-d c used to broadcast into a (2, 2)
        result; a batch with the prior's width still runs, and a 1-d c is
        one mean for a batch of any width."""
        prior = GaussianPrior(c=[0.0, 3.0], sigma_c=1.0)
        for x in (np.array([[1.0], [2.0]]), np.array([1.0, 2.0, 3.0])):
            with pytest.raises(ValueError, match=r"must have 2 coordinates, got shape"):
                form(GaussianWorld(prior, 1.0), x, 0.5)
        assert form(GaussianWorld(prior, 1.0), np.array([[1.0, 2.0]]), 0.5).shape == (1, 2)
        world = GaussianWorld(GaussianPrior(c=[0.5], sigma_c=1.0), 1.0)
        assert form(world, np.ones((2, 3)), 0.5).shape == (2, 3)

    def test_flow_endpoint_maps_observation_onto_prior(self):
        """Pushing y ~ N(c, sigma_c^2 + sigma_n^2) through the t = 0 map
        gives samples distributed as the prior."""
        rng = np.random.default_rng(17)
        prior = GaussianPrior(c=[0.7], sigma_c=0.9)
        sigma_n = 0.4
        n = 100_000
        y = prior.c + np.hypot(0.9, sigma_n) * rng.standard_normal((n, 1))
        x0 = gaussian_flow_trajectory(GaussianWorld(prior, sigma_n), y, 0.0)
        assert abs(x0.mean() - 0.7) < 3.0 * 0.9 / np.sqrt(n)
        assert abs(x0.std(ddof=1) - 0.9) < 3.0 * 0.9 / np.sqrt(2 * n)

    def test_tweedie_from_analytic_marginal_score(self):
        """x_t ~ N(c, sigma_c^2 + t^2 sigma_n^2) marginally, so the score
        is available without any posterior computation; x_t + sigma_t^2
        times that score must reproduce the posterior mean."""
        rng = np.random.default_rng(23)
        prior = GaussianPrior(c=[0.2], sigma_c=1.1)
        sigma_n = 0.8
        for _ in range(100):
            t = rng.uniform(0.05, 1.0)
            x_t = rng.normal(scale=2.0, size=1)
            marg_var = prior.sigma_c**2 + t**2 * sigma_n**2
            score = -(x_t - prior.c) / marg_var
            sigma_t = t * sigma_n
            via_score = x_t + sigma_t**2 * score
            pm = gaussian_posterior_mean(GaussianWorld(prior, sigma_n), x_t, t)
            assert_allclose(via_score, pm, rtol=0, atol=1e-10)


class TestOracleWrappers:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), m=st.integers(1, 6), d=st.integers(1, 3),
           schedule=st.one_of(st.builds(ConstantSchedule, st.sampled_from([0.0, 0.3])),
                              st.builds(BrownianSchedule, st.sampled_from([0.0, 0.2])),
                              st.just(TableSchedule((0.0, 0.5, 1.0), (0.4, 0.1, 0.0)))),
           sigma=st.sampled_from([0.0, 0.5, 1.7]),
           t=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           lead=st.sampled_from([(0,), (), (1,), (7,)]))
    def test_the_oracle_is_the_public_function_bit_for_bit(self, data, m, d, schedule, sigma,
                                                           t, lead):
        """The oracle gives the bits of mixture_posterior_mean on its world's tables: a
        fresh oracle, and one called and then sent through a pickle with its world.  Zero
        weights, sigma = 0 (every row in the far field), t = 0 and 1, and empty, single
        and batched states included."""
        assume(t > 0.0 or not isinstance(schedule, BrownianSchedule))
        coords = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e150, 1e150))
        modes = data.draw(arrays(np.float64, (m, d), elements=coords))
        raw = data.draw(arrays(np.float64, m, elements=st.sampled_from([0.0, 0.3, 1.0])))
        raw[data.draw(st.integers(0, m - 1))] = 1.0
        prior = GaussianMixturePrior(modes, raw / raw.sum())
        H = data.draw(arrays(np.float64, (d, d), elements=st.floats(-2.0, 2.0)))
        x_t = data.draw(arrays(np.float64, lead + (d,), elements=coords))
        world = MixtureWorld(prior, LinearDegradation(H, sigma))
        want = mixture_posterior_mean(world, x_t, t, schedule_epsilon(schedule, t))
        oracle = world.oracle(schedule)
        assert oracle(x_t, t).tobytes() == want.tobytes()
        restored = pickle.loads(pickle.dumps(oracle))
        assert restored(x_t, t).tobytes() == want.tobytes()

    def test_mixture_oracle_with_schedule_folds_epsilon(self):
        rng = np.random.default_rng(31)
        prior = random_mixture(rng, dim=2, n_modes=3)
        world = MixtureWorld(prior, LinearDegradation(H=np.eye(2), sigma=0.5))
        oracle = MixturePosteriorOracle(world, BrownianSchedule(0.2))
        xs = rng.normal(size=(4, 2))
        t = 0.4
        eps_t = 0.2 / np.sqrt(t)
        want = mixture_posterior_mean(world, xs, t, extra_noise_std=eps_t)
        assert_allclose(oracle(xs, t), want, rtol=1e-14)

    def test_gaussian_oracle_without_schedule(self):
        prior = GaussianPrior(c=[0.0], sigma_c=1.0)
        oracle = GaussianDenoisingOracle(GaussianWorld(prior, 1.0))
        assert oracle.schedule == ConstantSchedule(0.0)
        xs = np.array([[2.0]])
        assert_allclose(oracle(xs, 1.0), [[1.0]])

    def test_constant_zero_schedule_is_a_no_op(self):
        """The default schedule adds no noise: the oracles are the posterior
        means without extra noise, bit for bit."""
        prior = GaussianPrior(c=[0.0], sigma_c=1.0)
        xs = np.array([[0.3], [-1.0]])
        world = GaussianWorld(prior, 1.0)
        got = GaussianDenoisingOracle(world)(xs, 0.6)
        assert got.tobytes() == gaussian_posterior_mean(world, xs, 0.6).tobytes()
        mix = MixtureWorld(two_point_prior(), LinearDegradation(H=[[1.0]], sigma=0.5))
        got = MixturePosteriorOracle(mix)(xs, 0.6)
        assert got.tobytes() == mixture_posterior_mean(mix, xs, 0.6).tobytes()
