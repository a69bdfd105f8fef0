import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from restep.degradation import ConstantSchedule
from restep.oracles import GaussianMixturePrior, GaussianPrior, LinearDegradation
from restep.regressor import MlpRegressor, TrainConfig
from restep.samplers import SamplerConfig, iterative_restore
from restep.worlds import (
    DivergenceError,
    DivergenceGuard,
    GaussianWorld,
    MixtureWorld,
    derive_rng,
    derive_seed,
)


class TestSeedDerivation:
    def test_same_labels_same_stream(self):
        a = derive_rng(7, "inputs").standard_normal(4)
        b = derive_rng(7, "inputs").standard_normal(4)
        assert_array_equal(a, b)

    def test_different_labels_different_streams(self):
        a = derive_rng(7, "inputs").standard_normal(4)
        b = derive_rng(7, "train-data").standard_normal(4)
        c = derive_rng(8, "inputs").standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_mixed_labels(self):
        a = derive_seed(3, 1, 0)
        b = derive_seed(3, 1, 1)
        c = derive_seed(3, "cell", 0)
        assert len({a, b, c}) == 3

    def test_string_hash_is_stable(self):
        """String labels go through SHA-256 so derivations survive
        interpreter restarts and platform changes.  The value below pins
        the rule; if it ever changes, stored seeds change meaning."""
        assert derive_seed(0, "inputs") == 11870075983740520286

    def test_label_validation(self):
        with pytest.raises(ValueError):
            derive_rng(0, -1)
        with pytest.raises(TypeError):
            derive_rng(0, 1.5)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: SamplerConfig(1, seed=1.5), ValueError, "seed must be an integer >= 0, got 1.5"),
        (lambda: SamplerConfig(1, seed=-1), ValueError, "seed must be an integer >= 0, got -1"),
        (lambda: TrainConfig(seed=-3), ValueError, "seed must be an integer >= 0, got -3"),
        (lambda: derive_rng(1.5), ValueError, "seed must be an integer >= 0, got 1.5"),
        (lambda: derive_seed(0, True), TypeError, "seed label must be int or str, got bool"),
    ], ids=["SamplerConfig-float", "SamplerConfig-negative", "TrainConfig-negative",
            "derive_rng-float", "derive_seed-bool-label"])
    def test_seed_is_checked_where_it_comes_in(self, call, error, message):
        """A seed is an integer >= 0 and a label an integer >= 0 or a string;
        a config refuses a bad seed when built, not inside numpy on its
        first run, and a bool label is not the label 1."""
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**64 - 1), max_size=3))
    def test_derive_rng_is_the_documented_seed_sequence(self, seed, labels):
        """With integer labels, derive_rng(seed, *labels) draws what
        default_rng(SeedSequence((seed, *labels))) draws, and with none what
        default_rng(seed) draws: the rule training and the samplers rely on."""
        want = np.random.default_rng(np.random.SeedSequence((seed, *labels)))
        assert_array_equal(derive_rng(seed, *labels).random(4), want.random(4))
        assert_array_equal(derive_rng(seed).random(4), np.random.default_rng(seed).random(4))


class TestMixtureWorld:
    def world(self, sigma=0.5):
        prior = GaussianMixturePrior(
            modes=[[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
            weights=[0.4, 0.3, 0.2, 0.1],
        )
        return MixtureWorld(prior, LinearDegradation(np.eye(2), sigma))

    def test_clean_samples_live_on_modes(self):
        world = self.world()
        x = world.sample_pairs(derive_rng(0, "clean"), 100)[0]
        dists = np.linalg.norm(
            x[:, None, :] - world.prior.modes[None, :, :], axis=2
        ).min(axis=1)
        assert_array_equal(dists, np.zeros(100))

    def test_mode_frequencies_match_weights(self):
        world = self.world()
        n = 20_000
        x = world.sample_pairs(derive_rng(1, "clean"), n)[0]
        for i, w in enumerate(world.prior.weights):
            freq = np.mean(np.all(x == world.prior.modes[i], axis=1))
            assert abs(freq - w) < 3.0 * np.sqrt(w * (1 - w) / n)

    def test_degradation_noise_level(self):
        world = self.world(sigma=0.5)
        x, y = world.sample_pairs(derive_rng(2, "pairs"), 50_000)
        resid = y - x @ world.degradation.H.T
        assert abs(resid.std() - 0.5) < 0.01
        assert abs(resid.mean()) < 0.01

    def test_rank_deficient_observation(self):
        prior = GaussianMixturePrior(modes=[[1.0, 2.0]], weights=[1.0])
        world = MixtureWorld(
            prior, LinearDegradation([[1.0, 0.0], [0.0, 0.0]], 0.0)
        )
        x, y = world.sample_pairs(derive_rng(3, "pairs"), 4)
        assert_array_equal(y[:, 0], x[:, 0])
        assert_array_equal(y[:, 1], np.zeros(4))

    def test_an_observation_that_overflows_raises_no_warning(self):
        """Modes at +-1e308 under H = diag(3, 1): x @ H.T overflows, which
        warned in the matmul; the observation is non-finite, a start the
        samplers flag."""
        prior = GaussianMixturePrior([[1e308, 0.0], [-1e308, 0.0]], [0.5, 0.5])
        world = MixtureWorld(prior, LinearDegradation([[3.0, 0.0], [0.0, 1.0]], 1.0))
        y = world.sample_pairs(derive_rng(0, "pairs"), 4)[1]
        assert not np.isfinite(y[:, 0]).any()

    def test_signal_peak_is_mode_span(self):
        assert self.world().signal_peak == 2.0

    def test_stream_matches_sample_pairs(self):
        """Each stream item is one sample_pairs draw, made with the same
        generator calls, so the items reproduce successive draws exactly."""
        world = self.world()
        rng = derive_rng(5, "s")
        draws = [world.sample_pairs(rng, 256) for _ in range(3)]
        stream = world.pair_stream(derive_rng(5, "s"))
        for x, y in draws:
            got_x, got_y = next(stream)
            assert_array_equal(got_x, x)
            assert_array_equal(got_y, y)

    def test_dimension_mismatch_rejected(self):
        prior = GaussianMixturePrior(modes=[[0.0, 0.0]], weights=[1.0])
        with pytest.raises(ValueError):
            MixtureWorld(prior, LinearDegradation(np.eye(3), 0.1))

    def test_oracle_is_exact_posterior(self):
        world = self.world()
        oracle = world.oracle()
        from restep.oracles import mixture_posterior_mean
        xs = derive_rng(6, "probe").normal(size=(5, 2))
        assert_allclose(
            oracle(xs, 0.7),
            mixture_posterior_mean(world.prior, world.degradation, xs, 0.7),
        )


class TestGaussianWorld:
    def world(self):
        return GaussianWorld(GaussianPrior(c=[0.5], sigma_c=1.5), sigma_n=0.5)

    def test_sample_statistics(self):
        world = self.world()
        n = 50_000
        x, y = world.sample_pairs(derive_rng(7, "pairs"), n)
        assert abs(x.mean() - 0.5) < 3 * 1.5 / np.sqrt(n)
        assert abs(x.std(ddof=1) - 1.5) < 3 * 1.5 / np.sqrt(2 * n)
        assert abs((y - x).std(ddof=1) - 0.5) < 3 * 0.5 / np.sqrt(2 * n)

    def test_signal_peak_convention(self):
        # two prior standard deviations, the bulk of the prior's range
        assert self.world().signal_peak == 3.0


@st.composite
def guard_states(draw):
    """A start and a later state of one shape: d from 1 to 12 coordinates,
    no, one or 29 rows, any finite entries."""
    d = draw(st.integers(1, 12))
    lead = draw(st.sampled_from([(), (1,), (29,)]))
    states = arrays(np.float64, lead + (d,), elements=st.floats(allow_nan=False,
                                                                allow_infinity=False))
    return draw(states), draw(states)


class TestDivergenceGuard:
    def toy_estimator(self, factor):
        def estimate(x_t, t):
            return factor * np.asarray(x_t)
        return estimate

    def test_passthrough_below_threshold(self):
        guard = DivergenceGuard(self.toy_estimator(2.0), 0.0)
        x = np.array([[1.0, 1.0]])
        out = guard(x, 1.0)
        assert_array_equal(out, 2.0 * x)
        assert guard.calls == 1

    def test_divergence_detected_with_step_index(self):
        guard = DivergenceGuard(self.toy_estimator(1.0), 0.0)
        x = np.array([[1.0, 0.0]])
        guard(x, 1.0)                       # baseline norm 1
        guard(10.0 * x, 0.9)                # fine
        with pytest.raises(DivergenceError) as info:
            guard(2e6 * x, 0.8)
        assert info.value.step_index == 2
        assert info.value.t == 0.8
        assert "initial norm 1 at step 2" in str(info.value)

    def test_divergence_error_survives_pickling(self):
        """A cell returns its DivergenceError across the process pool."""
        for err in (DivergenceError(3, 0.25, "non-finite iterate"),
                    DivergenceError(7, None, "non-finite loss")):
            back = pickle.loads(pickle.dumps(err))
            assert (back.step_index, back.t, back.what) == (err.step_index, err.t, err.what)
            assert str(back) == str(err)

    def test_baseline_floor_protects_tiny_starts(self):
        guard = DivergenceGuard(self.toy_estimator(1.0), 0.0)
        x = np.zeros((1, 2))
        guard(x, 1.0)                       # baseline floored at 1e-12
        with pytest.raises(DivergenceError):
            guard(np.full((1, 2), 0.1), 0.9)   # 0.1 / 1e-12 >> 1e6

    def test_baseline_takes_the_first_estimate_when_larger(self):
        """A start at 0 whose estimate is not: the baseline is the estimate's
        norm, so stepping toward it is no blow-up."""
        guard = DivergenceGuard(lambda x_t, t: np.full(np.shape(x_t), 0.5), 0.0)
        guard(np.zeros((1, 2)), 1.0)
        assert guard.baseline == 0.5
        guard(np.full((1, 2), 0.25), 0.9)
        with pytest.raises(DivergenceError):
            guard(np.full((1, 2), 1e6), 0.8)

    def test_floor_is_the_least_baseline(self):
        """A start at 1e-7 whose estimate is 0, as in generate_from_noise at
        sigma 1e-7: floored at the world's scale, 1, the path out to 0.3 is no
        blow-up, and a state past 1e6 still is."""
        guard = DivergenceGuard(lambda x_t, t: np.zeros(np.shape(x_t)), 1.0)
        guard(np.full((1, 2), 1e-7), 1.0)
        assert guard.baseline == 1.0
        guard(np.full((1, 2), 0.3), 0.9)
        with pytest.raises(DivergenceError):
            guard(np.full((1, 2), 2e6), 0.8)

    def test_an_empty_batch_passes(self):
        """A (0, d) state has no largest entry: the guard reads 0 (numpy's
        maximum raised on the zero-size array) and the run keeps its shape."""
        world = TestMixtureWorld().world()
        out = iterative_restore(DivergenceGuard(world.oracle(), 1.0), np.empty((0, 2)),
                                SamplerConfig(steps=3))
        assert out.shape == (0, 2)

    def test_batch_norm_is_worst_row(self):
        guard = DivergenceGuard(self.toy_estimator(1.0), 0.0)
        x = np.array([[1.0, 0.0], [0.5, 0.5]])
        guard(x, 1.0)
        bad = np.array([[0.1, 0.0], [3e6, 0.0]])
        with pytest.raises(DivergenceError):
            guard(bad, 0.9)

    def test_guard_reads_huge_states_without_overflow(self):
        """A start at 1e200, whose squares overflow (the baseline was inf, so
        the guard could never fire), sets a finite baseline, and a 1e7-fold
        blow-up is flagged at step 1 with no warning."""
        guard = DivergenceGuard(self.toy_estimator(1.0), 0.0)
        guard(np.array([[1e200, 0.0]]), 1.0)
        assert guard.baseline == 1e200
        with pytest.raises(DivergenceError) as info:
            guard(np.array([[1e207, 0.0]]), 0.9)
        assert info.value.step_index == 1

    @settings(max_examples=150, deadline=None)
    @given(xy=guard_states())
    @example(xy=(np.full((29, 3), 1e200), np.full((29, 3), -1e200)))
    @example(xy=(np.array([1.7976931348623157e308, 1.0]),
                 np.array([-1.7976931348623157e308, 0.0])))
    def test_guard_reads_the_largest_absolute_entry(self, xy):
        """The baseline and the threshold test read a state's largest absolute
        entry, so any finite state, huge ones included, gives a finite
        baseline and no warning."""
        x, y = xy
        guard = DivergenceGuard(self.toy_estimator(1.0), 0.0)
        guard(x, 1.0)
        assert guard.baseline == max(np.abs(x).max(), 1e-12)
        if np.abs(y).max() > DivergenceGuard.FACTOR * guard.baseline:
            with pytest.raises(DivergenceError):
                guard(y, 0.5)
        else:
            guard(y, 0.5)


class TestEquality:
    """``==`` compares array fields whole, so equal values built apart are
    equal (the generated ``==`` raised ValueError on their arrays), and the
    worlds and oracles compare through those fields."""

    @staticmethod
    def mixture(weights=(0.25, 0.75), sigma=0.5):
        prior = GaussianMixturePrior([[0.0, 1.0], [2.0, 3.0]], list(weights))
        return MixtureWorld(prior, LinearDegradation([[1.0, 0.0], [0.0, 0.5]], sigma))

    @staticmethod
    def gaussian(c=(1.0, 2.0)):
        return GaussianWorld(GaussianPrior(list(c), 1.0), 0.5)

    def test_equal_values_built_apart_are_equal(self):
        a, b = self.mixture(), self.mixture()
        assert a.prior == b.prior and a.degradation == b.degradation
        assert a == b and a.oracle(ConstantSchedule(0.1)) == b.oracle(ConstantSchedule(0.1))
        assert self.gaussian().prior == self.gaussian().prior
        assert self.gaussian() == self.gaussian()
        assert self.gaussian().oracle() == self.gaussian().oracle()
        model = MlpRegressor.create(2, [4, 3], np.random.default_rng(0))
        assert model == model.copy()
        assert not model != model.copy()

    def test_a_changed_value_or_type_is_unequal(self):
        assert self.mixture().prior != self.mixture(weights=(0.75, 0.25)).prior
        assert self.mixture() != self.mixture(sigma=0.6)
        assert self.gaussian() != self.gaussian(c=(1.0, 2.5))
        assert self.gaussian().prior != self.gaussian(c=(1.0, 2.0, 3.0)).prior
        assert self.mixture().prior != self.gaussian().prior
        assert self.mixture().degradation != "H"
        model = MlpRegressor.create(2, [4, 3], np.random.default_rng(0))
        other = model.copy()
        other.biases[-1][0] = 1.0
        assert model != other
        assert model != MlpRegressor.create(2, [4], np.random.default_rng(0))

    def test_arrays_keep_the_classes_unhashable(self):
        for value in (self.mixture().prior, self.mixture().degradation,
                      self.gaussian().prior,
                      MlpRegressor.create(2, [4], np.random.default_rng(0))):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
