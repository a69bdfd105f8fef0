import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from restep.metrics import (
    distortion_metrics,
    empirical_distribution_stats,
    nearest_modes,
)
from restep.oracles import GaussianMixturePrior


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

    def test_validation(self):
        with pytest.raises(ValueError):
            distortion_metrics(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            distortion_metrics(np.zeros((2, 2)), np.zeros((2, 2)), peak=0.0)


class TestNearestMode:
    def prior(self):
        return GaussianMixturePrior(
            modes=[[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
            weights=[0.25, 0.25, 0.25, 0.25],
        )

    def test_frozen_distance(self):
        idx, dist = nearest_modes(np.array([[0.9, 0.1]]), self.prior())
        assert_array_equal(idx, [0])
        assert_allclose(dist, [0.9055385138137417], rtol=1e-15)

    def test_rows_of_the_wrong_width_are_refused(self):
        """A (n, 1) batch against a 2-d prior used to broadcast into
        indices [1, 0] and distances 0.141."""
        prior = GaussianMixturePrior([[0.0, 0.0], [5.0, 5.0]], [0.5, 0.5])
        with pytest.raises(ValueError, match=r"^xs must have 2 coordinates"):
            nearest_modes([[4.9], [0.1]], prior)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 2)])
    def test_more_than_one_leading_axis_is_refused(self, shape):
        """The transpose reversed every axis: a (2, 2, 2) batch returned
        wrong (2, 2) indices and a (2, 3, 2) one a broadcast error."""
        prior = GaussianMixturePrior([[0.0, 0.0], [5.0, 5.0]], [0.5, 0.5])
        xs = np.zeros(shape)
        with pytest.raises(ValueError, match=r"^xs must be \(d,\) or \(n, d\), got shape "
                           + re.escape(str(shape))):
            nearest_modes(xs, prior)

    def test_tie_goes_to_lowest_index(self):
        idx, _ = nearest_modes(np.array([[1.0, 0.0]]), self.prior())
        assert_array_equal(idx, [0])
        idx, _ = nearest_modes(np.array([[0.0, 0.0]]), self.prior())
        assert_array_equal(idx, [0])

    def test_distances_whose_squares_overflow(self):
        """Every squared distance of the row overflows: it was index 0 at inf."""
        prior = GaussianMixturePrior([[1e155, 0.0], [-1e155, 0.0]], [0.5, 0.5])
        idx, dist = nearest_modes(np.array([[-2e154, 0.0], [0.0, 0.0]]), prior)
        assert_array_equal(idx, [1, 0])
        assert_array_equal(dist, [8e154, 1e155])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           dm=st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 9)),
                        st.tuples(st.integers(1, 2), st.integers(10, 140))),
           lead=st.sampled_from([(), (1,), (13,)]))
    def test_batch_keeps_every_bit_of_linalg_norm(self, data, dm, lead):
        """Indices and distances equal those of np.linalg.norm over the
        differences, ties included, up to 140 modes, on every row whose
        nearest linalg distance is finite.  A row whose every squared distance
        overflows gets a mode and a distance within d + 2 ulps of the exact
        nearest one, from Fractions."""
        d, m = dm
        coords = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e200, 1e200))
        prior = GaussianMixturePrior(data.draw(arrays(np.float64, (m, d), elements=coords)),
                                     np.full(m, 1.0 / m))
        xs = data.draw(arrays(np.float64, lead + (d,), elements=coords))
        idx, dists = nearest_modes(xs, prior)
        rows = np.atleast_2d(xs)
        with np.errstate(over="ignore"):  # the reference's squares and differences overflow
            want = np.linalg.norm(rows[:, None, :] - prior.modes[None, :, :], axis=2)
        want_idx = np.argmin(want, axis=1)
        want_dist = want[np.arange(len(rows)), want_idx]
        near = np.isfinite(want_dist)
        assert_array_equal(idx[near], want_idx[near])
        assert dists[near].tobytes() == want_dist[near].tobytes()
        tol = Fraction(d + 2, 2**52)
        for row, i, dist in zip(rows[~near], idx[~near], dists[~near]):
            exact = [sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(row, mode))
                     for mode in prior.modes]  # squared distances
            assert exact[i] <= min(exact) * ((1 + tol) / (1 - tol)) ** 2
            if np.isinf(dist):  # beyond the largest float
                assert exact[i] >= (Fraction(np.finfo(float).max) * (1 - tol)) ** 2
            else:
                assert (1 - tol) ** 2 <= Fraction(dist) ** 2 / exact[i] <= (1 + tol) ** 2


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
