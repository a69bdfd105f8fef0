import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal
from scipy import special, stats

from restep.metrics import (
    _mean,
    _ndtr,
    distortion_metrics,
    empirical_distribution_stats,
    nearest_modes,
)
from restep.worlds import MixtureWorld
from test_oracles import tie_margin


@st.composite
def modes_and_rows(draw):
    """``(modes, xs)``: up to 12 coordinates and 9 modes, or up to 2 and 140, of
    small integers and floats up to 1e200, and a vector or batch of rows."""
    d, m = draw(st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 9)),
                          st.tuples(st.integers(1, 2), st.integers(10, 140))))
    coords = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e200, 1e200))
    lead = draw(st.sampled_from([(), (1,), (13,)]))
    return (draw(arrays(np.float64, (m, d), elements=coords)),
            draw(arrays(np.float64, lead + (d,), elements=coords)))


class TestDistortion:
    def test_frozen_psnr(self):
        # mse = 0.0625 against peak 1 gives 10 log10(16).
        ref = np.zeros((4, 1))
        est = np.full((4, 1), 0.25)
        mse, psnr = distortion_metrics(ref, est)
        assert_allclose(mse, 0.0625, rtol=1e-15)
        assert_allclose(psnr, 12.041199826559248, rtol=1e-15)

    def test_peak_scaling(self):
        ref = np.zeros((4, 1))
        est = np.full((4, 1), 0.25)
        _, psnr1 = distortion_metrics(ref, est, peak=1.0)
        _, psnr2 = distortion_metrics(ref, est, peak=2.0)
        assert_allclose(psnr2 - psnr1, 20.0 * np.log10(2.0), rtol=1e-12)

    def test_perfect_reconstruction_is_infinite_psnr(self):
        x = np.ones((3, 2))
        mse, psnr = distortion_metrics(x, x.copy())
        assert mse == 0.0
        assert np.isinf(psnr)

    def test_overflowing_error_is_minus_infinite_psnr(self):
        """Finite arrays whose squared difference overflows: mse = inf, and
        psnr = -inf rather than a math domain error."""
        with np.errstate(over="ignore"):
            mse, psnr = distortion_metrics(np.full((2, 1), 1e200), np.full((2, 1), -1e200))
        assert mse == np.inf
        assert psnr == -np.inf

    def test_mse_is_a_float_where_only_its_sum_overflows(self):
        """Each squared error is 9e306, so their sum overflows but their mean
        does not: mse was inf and psnr -inf."""
        mse, psnr = distortion_metrics(np.zeros((1000, 2)), np.full((1000, 2), 3e153), peak=2.0)
        assert mse == 3e153 ** 2
        assert psnr == 10.0 * math.log10(4.0 / mse)

    @settings(max_examples=100, deadline=None)
    @given(terms=arrays(np.float64, st.integers(1, 300),
                        elements=st.floats(0.0, 1.7e308) | st.floats(0.0, 10.0)))
    def test_mean_keeps_numpys_bits_and_scales_only_an_overflowed_sum(self, terms):
        """A finite np.mean is returned as is; an overflowed one is the mean of
        the terms scaled by a power of two above their count, here 2^9 > 300,
        and scaled back: the scale moves no bit that the mean keeps."""
        with np.errstate(over="ignore"):
            want = np.mean(terms)
        if np.isinf(want):
            want = np.mean(terms / 512.0) * 512.0
        assert _mean(terms) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            distortion_metrics(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            distortion_metrics(np.zeros((2, 2)), np.zeros((2, 2)), peak=0.0)


def mixture(modes, weights):
    """A noiseless mixture world over ``modes``, every coordinate observed."""
    modes = np.asarray(modes, dtype=float)
    return MixtureWorld(modes, weights, np.eye(modes.shape[1]), 0.0)


class TestNearestMode:
    def world(self):
        return mixture([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], [0.25] * 4)

    def test_frozen_distance(self):
        idx, dist = nearest_modes(np.array([[0.9, 0.1]]), self.world())
        assert_array_equal(idx, [0])
        assert_allclose(dist, [0.9055385138137417], rtol=1e-15)

    def test_rows_of_the_wrong_width_are_refused(self):
        """A (n, 1) batch against a 2-d prior used to broadcast into
        indices [1, 0] and distances 0.141."""
        world = mixture([[0.0, 0.0], [5.0, 5.0]], [0.5, 0.5])
        with pytest.raises(ValueError, match=r"^xs must have 2 coordinates"):
            nearest_modes([[4.9], [0.1]], world)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 2)])
    def test_more_than_one_leading_axis_is_refused(self, shape):
        """The transpose reversed every axis: a (2, 2, 2) batch returned
        wrong (2, 2) indices and a (2, 3, 2) one a broadcast error."""
        world = mixture([[0.0, 0.0], [5.0, 5.0]], [0.5, 0.5])
        xs = np.zeros(shape)
        with pytest.raises(ValueError, match=r"^xs must be \(d,\) or \(n, d\), got shape "
                           + re.escape(str(shape))):
            nearest_modes(xs, world)

    def test_empty_batch(self):
        idx, dist = nearest_modes(np.zeros((0, 2)), self.world())
        assert idx.shape == dist.shape == (0,)

    def test_tie_goes_to_lowest_index(self):
        idx, _ = nearest_modes(np.array([[1.0, 0.0]]), self.world())
        assert_array_equal(idx, [0])
        idx, _ = nearest_modes(np.array([[0.0, 0.0]]), self.world())
        assert_array_equal(idx, [0])

    def test_distances_whose_squares_overflow(self):
        """Every squared distance of the row overflows: it was index 0 at inf."""
        world = mixture([[1e155, 0.0], [-1e155, 0.0]], [0.5, 0.5])
        idx, dist = nearest_modes(np.array([[-2e154, 0.0], [0.0, 0.0]]), world)
        assert_array_equal(idx, [1, 0])
        assert_array_equal(dist, [8e154, 1e155])

    @pytest.mark.parametrize("s", [1e-150, 1e-160, 1e-200])
    def test_tiny_worlds_keep_their_nearest_mode_and_distance(self, s):
        """Below about 1e-154 the squared differences are subnormal, and below
        about 1e-162 they round to 0: at 1e-160 the distances lost digits
        (1.4058e-161 for 1.4142e-161), and at 1e-200 every distance read 0 and
        both rows took index 0."""
        world = mixture(self.world().modes * s, [0.25] * 4)
        idx, dist = nearest_modes(np.array([[0.9, -1.1], [-1.0, -0.8]]) * s, world)
        assert_array_equal(idx, [1, 3])
        assert_allclose(dist, [s * math.sqrt(0.02), s * 0.2], rtol=4 * 2**-52)

    @settings(max_examples=60, deadline=None)
    @given(case=modes_and_rows())
    @example(case=(np.array([[-1.0], [0.0]]), np.array([2.0**53])))
    @example(case=(np.array([[0.0, 0.0], [0.0, -2.0], [0.0, -5.19343247e-20]]),
                   np.array([0.0, -1.0])))
    def test_batch_keeps_every_bit_of_linalg_norm(self, case):
        """Up to 140 modes, for vectors and batches: the index is the exactly
        nearest mode (in Fractions), exact ties to the lowest index, on every
        row with no rival within the tie margin of ``test_oracles.tie_margin``.
        The distance has the bits of np.linalg.norm over the chosen mode's
        difference wherever its squares are normal floats (or 0), and is within
        d + 2 ulps of the exact one elsewhere.  The pinned row is 1 from mode 1
        and 2^53 + 1 from mode 0; both norms round to 2^53, so the argmin of
        np.linalg.norm, which this test used to pin, takes mode 0.  In the second,
        mode 2 is nearest, mode 1 is within rounding of a tie with it and exactly
        tied with mode 0: a rule that moved to a lower index on a 0 gap cycled."""
        modes, xs = case
        d = modes.shape[1]
        idx, dists = nearest_modes(xs, mixture(modes, np.full(len(modes), 1.0 / len(modes))))
        rows = np.atleast_2d(xs)
        with np.errstate(over="ignore"):  # the reference's squares and differences overflow
            diff = rows - modes[idx]
            squares = diff * diff
            want = np.linalg.norm(diff, axis=1)
        normal = np.all((diff == 0) | ((squares >= np.finfo(float).tiny) & np.isfinite(squares)),
                        axis=1) & np.isfinite(want)
        assert dists[normal].tobytes() == want[normal].tobytes()
        tol = Fraction(d + 2, 2**52)
        with np.errstate(over="ignore"):
            far = np.linalg.norm(rows[:, None, :] - modes[None, :, :], axis=2)
        for row, i, dist, bits, row_far in zip(rows, idx, dists, normal, far):
            # modes farther by 2^-20 in float64 are no rivals, unless the squares may be
            # subnormal; the rest are compared exactly
            rivals = np.flatnonzero(row_far <= max(row_far.min() * (1 + 2.0**-20), 2.0**-500))
            exact = {k: sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(row, modes[k]))
                     for k in set(rivals) | {i}}  # squared distances
            nearest = min(exact, key=lambda k: (exact[k], k))
            if i != nearest:  # a near-tie, never an exact one
                assert exact[nearest] < exact[i]
                margin = tie_margin(row, modes[nearest], modes[i], modes)
                assert exact[i] - exact[nearest] <= 2 * margin
            if bits:
                continue
            if np.isinf(dist):  # beyond the largest float
                assert exact[i] >= (Fraction(np.finfo(float).max) * (1 - tol)) ** 2
            else:
                assert (1 - tol) ** 2 <= Fraction(dist) ** 2 / exact[i] <= (1 + tol) ** 2


# |a| = 1, sqrt2 and 8 sqrt2 as floats, and the |a| where a * sqrt(1/2) is
# sqrt(1/2), 1 and 8 exactly: cephes's ndtr and erfc change branch there.
BRANCH_EDGES = (1.0, math.sqrt(2), 8 * math.sqrt(2), 1.414213562373095, 11.31370849898476)
# The largest |a| whose ndtr tail cephes still computes, and the next float:
# beyond it (a / sqrt2)^2 exceeds MAXLOG and erfc underflows to 0.
UNDERFLOW_EDGE = (37.67712072049518, 37.67712072049519)


class TestNdtr:
    @settings(max_examples=300)
    @given(arrays(np.float64, st.integers(1, 30), elements=st.floats()))
    @example(np.array(BRANCH_EDGES + tuple(-a for a in BRANCH_EDGES)))
    @example(np.array(UNDERFLOW_EDGE + tuple(-a for a in UNDERFLOW_EDGE)))
    @example(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                       1.7976931348623157e308, -1.7976931348623157e308]))
    def test_is_scipys_ndtr_bit_for_bit(self, a):
        """Every float64, signed zeros, infinities, nan and subnormals too, at
        the branch edges |a| = 1, sqrt2 and 8 sqrt2 and across the underflow."""
        got, want = _ndtr(a), special.ndtr(a)
        assert_array_equal(np.isnan(got), np.isnan(a))
        assert got.tobytes() == np.where(np.isnan(a), got, want).tobytes()


class TestDistributionStats:
    def test_ks_small_for_matching_reference(self):
        rng = np.random.default_rng(10)
        n = 20_000
        samples = 0.5 + 2.0 * rng.standard_normal((n, 2))
        ks = empirical_distribution_stats(samples, 0.5, 2.0)
        assert ks.shape == (2,)
        assert np.all(ks < 1.63 / np.sqrt(n))   # ~ 1% critical value

    def test_ks_large_for_wrong_reference(self):
        rng = np.random.default_rng(11)
        samples = rng.standard_normal((5_000, 1))
        ks = empirical_distribution_stats(samples, 1.0, 1.0)
        assert ks[0] > 0.3

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            empirical_distribution_stats(np.zeros((1, 2)), 0.0, 1.0)

    def test_one_dimensional_input_is_a_single_coordinate(self):
        rng = np.random.default_rng(12)
        draws = rng.standard_normal(100)
        ks = empirical_distribution_stats(draws, 0.0, 1.0)
        assert ks.shape == (1,)
        assert ks.tobytes() == empirical_distribution_stats(draws[:, None], 0.0, 1.0).tobytes()

    @pytest.mark.parametrize("ref_mean, ref_std, name", [
        (0.0, np.nan, "ref_std"), (np.inf, 1.0, "ref_mean"), ([0.0, -np.inf], 1.0, "ref_mean"),
    ])
    def test_non_finite_reference_is_refused(self, ref_mean, ref_std, name):
        """These references used to give [nan nan] and [1. 1.]."""
        samples = np.random.default_rng(13).standard_normal((50, 2))
        with pytest.raises(ValueError, match=f"^{name} "):
            empirical_distribution_stats(samples, ref_mean, ref_std)

    @pytest.mark.parametrize("ref_mean, ref_std", [
        (0.0, 5e-324), (-1e308, 1.0), (1e308, 5e-324),
    ])
    def test_standardised_samples_beyond_the_floats(self, ref_mean, ref_std):
        """(x - mean) / std overflows to +-inf on some samples: their CDF is 0
        or 1, with no warning, and the statistic is still scipy's."""
        samples = np.array([[-1e308], [-2.0], [-5e-324], [0.0], [5e-324], [3.0], [1e308]])
        ks = empirical_distribution_stats(samples, ref_mean, ref_std)
        with np.errstate(over="ignore"):  # kstest warns of the overflow
            want = stats.kstest(samples[:, 0], "norm", args=(ref_mean, ref_std)).statistic
        assert ks.tobytes() == np.array([want]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 2_000), d=st.integers(1, 3),
           loc=st.floats(-1e6, 1e6), scale=st.floats(1e-6, 1e6),
           shift=st.floats(-3.0, 3.0), spread=st.floats(0.1, 10.0),
           decimals=st.none() | st.integers(-2, 6))
    def test_ks_is_scipys_statistic_bit_for_bit(self, seed, n, d, loc, scale, shift,
                                                spread, decimals):
        """Each column's statistic is ``scipy.stats.kstest``'s, ties from
        rounded samples and far-off references included."""
        rng = np.random.default_rng(seed)
        ref_mean = loc + scale * rng.normal(size=d)
        samples = ref_mean + scale * (shift + spread * rng.standard_normal((n, d)))
        if decimals is not None:
            samples = np.round(samples, decimals)
        ks = empirical_distribution_stats(samples, ref_mean, scale)
        want = [stats.kstest(samples[:, j], "norm", args=(ref_mean[j], scale)).statistic
                for j in range(d)]
        assert ks.tobytes() == np.array(want).tobytes()
