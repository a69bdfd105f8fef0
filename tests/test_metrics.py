import numpy as np
import pytest
from numpy.testing import assert_allclose

from restep.metrics import (
    distortion_metrics,
    empirical_distribution_stats,
    nearest_mode,
    nearest_modes,
)
from restep.oracles import GaussianMixturePrior


class TestDistortion:
    def test_frozen_psnr(self):
        # mse = 0.0625 against peak 1 gives 10 log10(16).
        ref = np.zeros((4, 1))
        est = np.full((4, 1), 0.25)
        report = distortion_metrics(ref, est)
        assert_allclose(report.mse, 0.0625, rtol=1e-15)
        assert_allclose(report.psnr, 12.041199826559248, rtol=1e-15)

    def test_peak_scaling(self):
        ref = np.zeros((4, 1))
        est = np.full((4, 1), 0.25)
        r1 = distortion_metrics(ref, est, peak=1.0)
        r2 = distortion_metrics(ref, est, peak=2.0)
        assert_allclose(r2.psnr - r1.psnr, 20.0 * np.log10(2.0), rtol=1e-12)

    def test_perfect_reconstruction_is_infinite_psnr(self):
        x = np.ones((3, 2))
        report = distortion_metrics(x, x.copy())
        assert report.mse == 0.0
        assert np.isinf(report.psnr)

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
        idx, dist = nearest_mode(np.array([0.9, 0.1]), self.prior())
        assert idx == 0
        assert_allclose(dist, 0.9055385138137417, rtol=1e-15)

    def test_tie_goes_to_lowest_index(self):
        idx, _ = nearest_mode(np.array([1.0, 0.0]), self.prior())
        assert idx == 0
        idx, _ = nearest_mode(np.array([0.0, 0.0]), self.prior())
        assert idx == 0

    def test_batch_agrees_with_singles(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(20, 2))
        idx, dists = nearest_modes(xs, self.prior())
        for i in range(20):
            i_single, d_single = nearest_mode(xs[i], self.prior())
            assert idx[i] == i_single
            assert_allclose(dists[i], d_single, rtol=1e-14)

    def test_single_vector_required_for_scalar_api(self):
        with pytest.raises(ValueError):
            nearest_mode(np.zeros((2, 2)), self.prior())


class TestDistributionStats:
    def test_moments_match_numpy(self):
        rng = np.random.default_rng(9)
        samples = rng.normal(size=(500, 3))
        s = empirical_distribution_stats(samples)
        assert_allclose(s.mean, samples.mean(axis=0), rtol=1e-14)
        assert_allclose(s.variance, samples.var(axis=0, ddof=1), rtol=1e-14)
        assert s.ks_vs_normal is None

    def test_ks_small_for_matching_reference(self):
        rng = np.random.default_rng(10)
        n = 20_000
        samples = 0.5 + 2.0 * rng.standard_normal((n, 2))
        s = empirical_distribution_stats(samples, ref_mean=0.5, ref_std=2.0)
        assert s.ks_vs_normal.shape == (2,)
        assert np.all(s.ks_vs_normal < 1.63 / np.sqrt(n))   # ~ 1% critical value

    def test_ks_large_for_wrong_reference(self):
        rng = np.random.default_rng(11)
        samples = rng.standard_normal((5_000, 1))
        s = empirical_distribution_stats(samples, ref_mean=1.0, ref_std=1.0)
        assert s.ks_vs_normal[0] > 0.3

    def test_reference_args_must_come_together(self):
        samples = np.zeros((10, 1))
        with pytest.raises(ValueError):
            empirical_distribution_stats(samples, ref_mean=0.0)
        with pytest.raises(ValueError):
            empirical_distribution_stats(samples, ref_std=1.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            empirical_distribution_stats(np.zeros((1, 2)))

    def test_one_dimensional_input_is_a_single_coordinate(self):
        rng = np.random.default_rng(12)
        draws = rng.standard_normal(100)
        s = empirical_distribution_stats(draws)
        assert s.mean.shape == (1,)
