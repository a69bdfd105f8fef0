import hashlib
import pickle
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from restep import regressor
from restep.degradation import (
    BrownianSchedule,
    ConstantSchedule,
    TableSchedule,
    forward_interpolate,
    forward_noise_std,
)
from restep.oracles import GaussianMixturePrior, GaussianPrior, LinearDegradation
from restep.regressor import (
    TIME_DISTRIBUTION_KINDS,
    MlpRegressor,
    TimeDistribution,
    TrainConfig,
    load_checkpoint,
    loss_and_gradients,
    sample_times,
    save_checkpoint,
    time_distribution_cdf,
    train,
)
from restep.samplers import ode_restore
from restep.worlds import DivergenceError, GaussianWorld, MixtureWorld, derive_rng


class TestTimeDistributions:
    def test_known_kinds(self):
        assert TIME_DISTRIBUTION_KINDS == (
            "linear_0", "linear_a", "bias_t1", "bias_t0", "bias_t0_t1"
        )
        with pytest.raises(ValueError):
            TimeDistribution("gaussian")

    def test_frozen_cdf_values(self):
        # Midpoints of the warped distributions, computed by hand from the
        # arcsin inversions.
        assert time_distribution_cdf(
            TimeDistribution("bias_t1"), 0.7071067811865475
        ) == pytest.approx(0.5, abs=1e-15)
        assert time_distribution_cdf(
            TimeDistribution("bias_t0"), 1.0 - 0.7071067811865475
        ) == pytest.approx(0.5, abs=1e-12)
        assert time_distribution_cdf(
            TimeDistribution("bias_t0_t1"), 0.5
        ) == pytest.approx(0.5, abs=1e-15)
        assert time_distribution_cdf(TimeDistribution("linear_0"), 0.25) == 0.25

    @pytest.mark.parametrize("kind", ["linear_0", "bias_t1", "bias_t0", "bias_t0_t1"])
    def test_samples_match_analytic_cdf(self, kind):
        dist = TimeDistribution(kind)
        rng = np.random.default_rng(100 + len(kind))
        draws = sample_times(dist, rng, size=20_000)
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        res = stats.kstest(draws, lambda t: time_distribution_cdf(dist, t))
        assert res.pvalue > 1e-3

    def test_linear_a_atom_and_body(self):
        dist = TimeDistribution("linear_a", a=1.0)
        rng = np.random.default_rng(55)
        n = 40_000
        draws = sample_times(dist, rng, size=n)
        atom = draws == 1.0
        # atom mass a / (1 + a) = 0.5
        assert abs(atom.mean() - 0.5) < 3.0 * 0.5 / np.sqrt(n)
        body = draws[~atom]
        assert body.max() < 1.0
        res = stats.kstest(body, stats.uniform(loc=0.0, scale=1.0).cdf)
        assert res.pvalue > 1e-3

    @pytest.mark.parametrize("kind", TIME_DISTRIBUTION_KINDS)
    def test_cdf_refuses_nan(self, kind):
        """nan used to come back as a nan CDF value for every kind."""
        with pytest.raises(ValueError, match="^t must be finite"):
            time_distribution_cdf(TimeDistribution(kind), np.nan)
        with pytest.raises(ValueError, match="^t must be finite"):
            time_distribution_cdf(TimeDistribution(kind), [0.5, np.nan])

    def test_linear_a_cdf_has_jump_at_one(self):
        dist = TimeDistribution("linear_a", a=3.0)
        assert time_distribution_cdf(dist, 1.0) == 1.0
        assert time_distribution_cdf(dist, 0.999999) == pytest.approx(
            0.999999 / 4.0, rel=1e-9
        )

    def test_bias_direction_ordering(self):
        rng = np.random.default_rng(7)
        means = {
            kind: sample_times(TimeDistribution(kind), rng, size=20_000).mean()
            for kind in ("bias_t0", "linear_0", "bias_t1")
        }
        assert means["bias_t0"] < means["linear_0"] < means["bias_t1"]

    def test_negative_atom_weight_rejected(self):
        with pytest.raises(ValueError):
            TimeDistribution("linear_a", a=-0.5)

    # kind -> SHA-256 of (1000 draws from derive_rng(0, kind), the CDF on
    # 101 evenly spaced times from 0 to 1), at a = 0.7.  The key order is
    # TIME_DISTRIBUTION_KINDS's, which numbers sweep_pt's default variants.
    _DIGESTS = {
        "linear_0": ("d49770edd9b33810f201370ca6ef3441564444911a8f5967299108cfcf9f16d1",
                     "2d97dd2c2d94ed0b5ce6c902c0dcf2a41753796593ae2859ab77b0ba0c647bc3"),
        "linear_a": ("0ab35d4e8497a7b390965e9bebd3f3de43ab77441624199dc373d64017c4122d",
                     "0e732d6d200c37d309ae910d81318c7a3c895348c3155a7c54a2023e41ac1dea"),
        "bias_t1": ("87b41bf33bd6198b6c9fb00f77b1d95715597786576e830ebc86baa834f3fda6",
                    "38ac837be726930441aee6ac1324259e6a312d86048cef6fb037f4318d5238fc"),
        "bias_t0": ("50a9644871009196d1d41ba9c1599d805b846608953510aae498d6ca6ecef48f",
                    "c7260e89d9bc5648dc3907f1d6b6b0c43a04e4340b5ab058ff2d6fbf38a1ac50"),
        "bias_t0_t1": ("29f56d0553a9e8b966f154955df0a34cd12409b0d400730e66f9757aa2579022",
                       "026cee2790eb757511c6b2bb3a4fc350a8dea3c6e14d4e782e32de5287c77e33"),
    }

    def test_draws_and_cdf_keep_every_bit(self):
        assert tuple(self._DIGESTS) == TIME_DISTRIBUTION_KINDS
        grid = np.linspace(0.0, 1.0, 101)
        for kind, digests in self._DIGESTS.items():
            dist = TimeDistribution(kind, a=0.7)
            got = (sample_times(dist, derive_rng(0, kind), 1000),
                   time_distribution_cdf(dist, grid))
            assert tuple(hashlib.sha256(np.ascontiguousarray(v, "<f8").tobytes()).hexdigest()
                         for v in got) == digests, kind


class TestMlpForward:
    def test_create_shapes_and_input_width(self):
        rng = np.random.default_rng(0)
        model = MlpRegressor.create(state_dim=2, hidden=[5, 4], rng=rng)
        assert model.layer_sizes == (3, 5, 4, 2)
        assert model.weights[0].shape == (5, 3)
        assert model.biases[-1].shape == (2,)
        assert model.state_dim == 2

    def test_forward_matches_manual_chain(self):
        w0 = np.array([[0.5, -0.25, 0.1], [0.0, 1.0, -1.0]])
        b0 = np.array([0.1, -0.2])
        w1 = np.array([[1.0, 2.0], [-1.0, 0.5]])
        b1 = np.array([0.0, 0.3])
        model = MlpRegressor(
            layer_sizes=(3, 2, 2), weights=[w0, w1], biases=[b0, b1]
        )
        x = np.array([0.4, -0.6])
        t = 0.7
        inp = np.array([0.4, -0.6, 0.7])
        hidden = np.tanh(w0 @ inp + b0)
        want = w1 @ hidden + b1
        assert_allclose(model.predict(x, t), want, rtol=1e-15)

    def test_single_and_batch_agree(self):
        rng = np.random.default_rng(3)
        model = MlpRegressor.create(2, [6], rng)
        xs = rng.normal(size=(5, 2))
        ts = rng.uniform(0, 1, size=5)
        batch = model.predict(xs, ts)
        for i in range(5):
            assert_allclose(batch[i], model.predict(xs[i], float(ts[i])), rtol=1e-15)

    def test_mismatched_input_width_rejected(self):
        rng = np.random.default_rng(4)
        model = MlpRegressor.create(2, [4], rng)
        with pytest.raises(ValueError):
            model.predict(np.zeros(3), 0.5)
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 2)), np.zeros(3))

    def test_layer_size_contract_enforced(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            MlpRegressor(
                layer_sizes=(3, 4, 3),    # output must be input - 1
                weights=[rng.normal(size=(4, 3)), rng.normal(size=(3, 4))],
                biases=[np.zeros(4), np.zeros(3)],
            )


class TestGradients:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("p_norm", [1, 2])
    def test_backprop_matches_central_differences(self, activation, p_norm):
        rng = np.random.default_rng(11)
        model = MlpRegressor.create(2, [4, 3], rng, activation=activation)
        inputs = rng.normal(size=(6, 3))
        targets = rng.normal(size=(6, 2))
        _, grads_w, grads_b = loss_and_gradients(model, inputs, targets, p_norm)
        h = 1e-6
        for l in range(len(model.weights)):
            for idx in [(0, 0), (model.weights[l].shape[0] - 1, 1)]:
                orig = model.weights[l][idx]
                model.weights[l][idx] = orig + h
                up, _, _ = loss_and_gradients(model, inputs, targets, p_norm)
                model.weights[l][idx] = orig - h
                dn, _, _ = loss_and_gradients(model, inputs, targets, p_norm)
                model.weights[l][idx] = orig
                fd = (up - dn) / (2 * h)
                assert_allclose(grads_w[l][idx], fd, rtol=1e-5, atol=1e-8)
            orig = model.biases[l][0]
            model.biases[l][0] = orig + h
            up, _, _ = loss_and_gradients(model, inputs, targets, p_norm)
            model.biases[l][0] = orig - h
            dn, _, _ = loss_and_gradients(model, inputs, targets, p_norm)
            model.biases[l][0] = orig
            assert_allclose(grads_b[l][0], (up - dn) / (2 * h), rtol=1e-5, atol=1e-8)

    def test_loss_values(self):
        rng = np.random.default_rng(12)
        model = MlpRegressor.create(1, [3], rng)
        inputs = rng.normal(size=(4, 2))
        targets = rng.normal(size=(4, 1))
        pred = model._forward(inputs)[-1]
        l1, _, _ = loss_and_gradients(model, inputs, targets, 1)
        l2, _, _ = loss_and_gradients(model, inputs, targets, 2)
        assert_allclose(l1, np.abs(pred - targets).mean(), rtol=1e-14)
        assert_allclose(l2, ((pred - targets) ** 2).mean(), rtol=1e-14)

    def test_unsupported_norm_rejected(self):
        rng = np.random.default_rng(13)
        model = MlpRegressor.create(1, [2], rng)
        with pytest.raises(ValueError):
            loss_and_gradients(model, np.zeros((2, 2)), np.zeros((2, 1)), 3)

    @pytest.mark.parametrize("inputs, targets", [
        ((4, 2), (4, 2)),   # targets wider than the output broadcast against it
        ((4, 3), (4, 1)),   # inputs wider than d + 1
        ((4, 2), (3, 1)),   # row counts differ
        ((2,), (1,)),       # not batches
    ])
    def test_batch_shapes_must_match_the_model(self, inputs, targets):
        """The residual is formed in place in the output, so targets must
        have the output's shape; a wider one used to broadcast silently."""
        model = MlpRegressor.create(1, [2], np.random.default_rng(14))
        with pytest.raises(ValueError, match="matching"):
            loss_and_gradients(model, np.zeros(inputs), np.zeros(targets), 2)


def _reference_pass(model, inputs, targets, p_norm):
    """Out-of-place forward and backward pass, written out independently of
    ``_ACTIVATIONS``: (prediction, loss, grads_w, grads_b)."""
    tanh = model.activation == "tanh"
    outs = [inputs]
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = outs[-1] @ w.T + b
        if l < len(model.weights) - 1:
            z = np.tanh(z) if tanh else np.maximum(z, 0.0)
        outs.append(z)
    diff = outs[-1] - targets
    if p_norm == 2:
        loss, delta = float(np.mean(diff * diff)), (2.0 / diff.size) * diff
    else:
        loss, delta = float(np.mean(np.abs(diff))), np.sign(diff) / diff.size
    grads_w, grads_b = [None] * len(model.weights), [None] * len(model.weights)
    for l in range(len(model.weights) - 1, -1, -1):
        grads_w[l] = delta.T @ outs[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            a = outs[l]
            delta = (delta @ model.weights[l]) * (1.0 - a * a if tanh
                                                  else (a > 0.0).astype(np.float64))
    return outs[-1], loss, grads_w, grads_b


class TestInPlaceActivation:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
           hidden=st.lists(st.integers(1, 40), min_size=1, max_size=2),
           rows=st.integers(1, 300), activation=st.sampled_from(["tanh", "relu"]),
           p_norm=st.sampled_from([1, 2]), scale=st.sampled_from([1e-3, 1.0, 30.0]))
    def test_predict_and_gradients_keep_every_bit(self, seed, dim, hidden, rows,
                                                  activation, p_norm, scale):
        """The activation overwrites its fresh pre-activations; predictions,
        loss and gradients equal an out-of-place pass bit for bit."""
        rng = np.random.default_rng(seed)
        model = MlpRegressor.create(dim, hidden, rng, activation=activation)
        model.weights = [w * scale for w in model.weights]
        xs = rng.normal(size=(rows, dim))
        ts = rng.uniform(0.0, 1.0, size=rows)
        targets = rng.normal(size=(rows, dim))
        inputs = np.concatenate([xs, ts[:, None]], axis=1)
        pred, loss, grads_w, grads_b = _reference_pass(model, inputs, targets, p_norm)
        assert model.predict(xs, ts).tobytes() == pred.tobytes()
        got_loss, got_w, got_b = loss_and_gradients(model, inputs, targets, p_norm)
        assert got_loss == loss
        for got, want in zip(got_w + got_b, grads_w + grads_b):
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
           hidden=st.lists(st.integers(1, 40), min_size=1, max_size=2),
           batch_size=st.sampled_from([1, 7, 32, 64]), steps=st.integers(1, 20),
           activation=st.sampled_from(["tanh", "relu"]), p_norm=st.sampled_from([1, 2]),
           schedule=st.sampled_from([
               ConstantSchedule(0.0), ConstantSchedule(0.3),
               BrownianSchedule(0.0), BrownianSchedule(0.3),
               TableSchedule((0.0, 1.0), (0.0, 0.0)),
               TableSchedule((0.0, 0.5, 1.0), (0.3, 0.0, 0.0))]),
           kind=st.sampled_from(TIME_DISTRIBUTION_KINDS))
    def test_training_keeps_every_bit(self, data, seed, dim, hidden, batch_size, steps,
                                      activation, p_norm, schedule, kind):
        """train() with its flat parameter, gradient and Adam buffers equals
        a fresh-array, array-by-array training loop bit for bit: every
        weight, bias and loss.  The stream is cut anywhere, batch boundaries
        and empty chunks (a zero-size last chunk among them) included; the
        schedules include tables that are zero everywhere or on part of
        (0, 1], which take the per-step noise path."""
        rng = np.random.default_rng(seed)
        model = MlpRegressor.create(dim, hidden, rng, activation=activation)
        total = steps * batch_size
        x, y = rng.normal(size=(total, dim)), rng.normal(size=(total, dim))
        cuts = data.draw(st.lists(st.one_of(
            st.integers(0, total),
            st.integers(0, steps).map(lambda k: k * batch_size)), max_size=6))
        edges = [0, *sorted(cuts), total]
        chunks = [(x[a:b], y[a:b]) for a, b in zip(edges[:-1], edges[1:])]
        cfg = TrainConfig(p_norm=p_norm, learning_rate=1e-2, batch_size=batch_size,
                          steps=steps, time_dist=TimeDistribution(kind, a=1.0),
                          schedule=schedule, seed=seed % 1000)
        got, got_losses = train(model, chunks, cfg)
        want, want_losses = _reference_train(model, x, y, cfg)
        assert got_losses.tobytes() == np.array(want_losses).tobytes()
        for a, b in zip(got.weights + got.biases, want):
            assert a.tobytes() == b.tobytes()


def _reference_train(model, x, y, config):
    """train() written out with fresh arrays throughout: the stream's rows
    in order, the documented per-step draws, ``_reference_pass`` and Adam
    with out-of-place temporaries.  Returns (weights + biases, losses)."""
    ref = model.copy()
    params = ref.weights + ref.biases
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    size, losses = config.batch_size, []
    for step in range(config.steps):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, step)))
        xb, yb = x[step * size:(step + 1) * size], y[step * size:(step + 1) * size]
        t = sample_times(config.time_dist, rng, size=size)
        x_t = forward_interpolate(xb, yb, t)
        std = forward_noise_std(config.schedule, t)
        if np.any(std > 0.0):
            x_t = x_t + std[:, None] * rng.standard_normal(x_t.shape)
        inputs = np.concatenate([x_t, t[:, None]], axis=1)
        _, loss, grads_w, grads_b = _reference_pass(ref, inputs, xb, config.p_norm)
        correction1 = 1.0 - 0.9 ** (step + 1)
        correction2 = 1.0 - 0.999 ** (step + 1)
        for p, g, m1, m2 in zip(params, grads_w + grads_b, moment1, moment2):
            m1 *= 0.9
            m1 += (1.0 - 0.9) * g
            m2 *= 0.999
            m2 += (1.0 - 0.999) * (g * g)
            p -= config.learning_rate * (m1 / correction1) / (
                np.sqrt(m2 / correction2) + 1e-8)
        losses.append(loss)
    return params, losses


class TestWorkspace:
    """The model's kept arrays never reach what a caller holds, and never
    travel with the model."""

    def model(self, activation="tanh"):
        return MlpRegressor.create(2, [16, 16], np.random.default_rng(40),
                                   activation=activation)

    def test_consecutive_outputs_do_not_share_memory(self):
        model = self.model()
        x = np.random.default_rng(41).normal(size=(50, 2))
        first = model.predict(x, 0.3)
        kept = first.copy()
        second = model.predict(x, 0.7)
        assert not np.shares_memory(first, second)
        assert_array_equal(first, kept)

    def test_heun_keeps_its_first_estimate(self):
        """Heun calls the estimator twice per step; every estimate stays as
        it was returned, and the run equals one fed copied estimates."""
        model = self.model()
        y = np.random.default_rng(42).normal(size=(30, 2))
        returned = []

        def recording(x, t):
            est = model.predict(x, t)
            returned.append((est, est.copy()))
            return est

        got = ode_restore(recording, y, "heun", n_steps=12)
        for est, copy in returned:
            assert_array_equal(est, copy)
        want = ode_restore(lambda x, t: model.predict(x, t).copy(), y, "heun", n_steps=12)
        assert got.tobytes() == want.tobytes()
        assert ode_restore(model, y, "heun", n_steps=12).tobytes() == want.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), m=st.integers(1, 300),
           activation=st.sampled_from(["tanh", "relu"]), p_norm=st.sampled_from([1, 2]))
    def test_alternating_row_counts_keep_every_bit(self, seed, n, m, activation, p_norm):
        """Row counts n, m, n with fresh inputs each time: predictions,
        losses and gradients all equal the out-of-place reference."""
        model = self.model(activation)
        rng = np.random.default_rng(seed)
        for rows in (n, m, n):
            xs, ts = rng.normal(size=(rows, 2)), rng.uniform(size=rows)
            targets = rng.normal(size=(rows, 2))
            inputs = np.concatenate([xs, ts[:, None]], axis=1)
            pred, loss, grads_w, grads_b = _reference_pass(model, inputs, targets, p_norm)
            assert model.predict(xs, ts).tobytes() == pred.tobytes()
            got_loss, got_w, got_b = loss_and_gradients(model, inputs, targets, p_norm)
            assert np.float64(got_loss).tobytes() == np.float64(loss).tobytes()
            for got, want in zip(got_w + got_b, grads_w + grads_b):
                assert got.tobytes() == want.tobytes()

    def test_pickles_leave_the_workspace_behind(self):
        model = self.model()
        before = pickle.dumps(model)
        x = np.random.default_rng(43).normal(size=(500, 2))
        want = model.predict(x, 0.4)
        after = pickle.dumps(model)
        assert len(after) == len(before)
        clone = pickle.loads(after)
        assert clone._work is None
        assert clone.predict(x, 0.4).tobytes() == want.tobytes()

    def test_copy_repr_and_eq_ignore_the_workspace(self):
        model = self.model()
        twin = MlpRegressor(model.layer_sizes, model.weights, model.biases)
        model.predict(np.zeros((20, 2)), 0.5)
        assert model._work is not None and twin._work is None
        assert model == twin
        assert repr(model) == repr(twin)
        assert model.copy()._work is None

    def test_a_trained_model_leaves_the_workspace_behind(self):
        """train() returns the model in the state a pickle round trip gives:
        no workspace, and parameters that own their memory, not views of
        the training buffer."""
        x = np.random.default_rng(44).normal(size=(64, 2))
        trained, _ = train(self.model(), [(x, x)], TrainConfig(batch_size=32, steps=2))
        assert trained._work is None
        assert all(p.flags.owndata for p in trained.weights + trained.biases)


class TestAllocations:
    """A warm 1000-row forward pass and a warm training step make no array
    near glibc's default mmap threshold (128 KiB), above which each fresh
    array is mapped and page-faulted anew.  numpy reports its buffers to
    tracemalloc, so the peak is deterministic."""

    LIMIT = 128 * 1024

    def test_warm_predict(self):
        model = MlpRegressor.create(2, [64, 64], np.random.default_rng(50))
        rng = np.random.default_rng(51)
        x, t = rng.normal(size=(1000, 2)), rng.uniform(size=1000)
        model.predict(x, t)
        tracemalloc.start()
        try:
            model.predict(x, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.LIMIT

    def test_warm_training_step(self):
        """The peak counts from the second step on: the first made the
        workspace, and train() allocates its moments once per call."""
        model = MlpRegressor.create(2, [64, 64], np.random.default_rng(52))
        rng = np.random.default_rng(53)
        x, y = rng.normal(size=(512, 2)), rng.normal(size=(512, 2))
        held = []

        def chunks():
            yield x[:256], y[:256]
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            yield x[256:], y[256:]

        tracemalloc.start()
        try:
            train(model, chunks(), TrainConfig(batch_size=256, steps=2,
                                               schedule=ConstantSchedule(0.1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held[0] < self.LIMIT

    def test_predicting_makes_no_backprop_scratch(self):
        """A model that only predicts never makes the backprop deltas (2 MB
        here): a fresh 128x128 model's first 1000-row predict peaks at its
        input and hidden arrays and its output, plus under 64 KiB."""
        model = MlpRegressor.create(2, [128, 128], np.random.default_rng(56))
        rng = np.random.default_rng(57)
        x, t = rng.normal(size=(1000, 2)), rng.uniform(size=1000)
        tracemalloc.start()
        try:
            model.predict(x, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1000 * sum(model.layer_sizes) + 64 * 1024

    def test_training_keeps_only_the_trained_parameters(self):
        """What train() leaves allocated is the returned weights and biases
        and a little more: not the 256-row workspace (about 1 MB at 128
        wide), which would stay resident while the model restores."""
        model = MlpRegressor.create(2, [128, 128], np.random.default_rng(54))
        rng = np.random.default_rng(55)
        x, y = rng.normal(size=(768, 2)), rng.normal(size=(768, 2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trained, _ = train(model, [(x, y)], TrainConfig(batch_size=256, steps=3))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        params = sum(p.nbytes for p in trained.weights + trained.biases)
        assert params <= kept < params + 64 * 1024


class TestTraining:
    def make_world(self):
        prior = GaussianMixturePrior(
            modes=[[1.0, 1.0], [-1.0, -1.0]], weights=[0.5, 0.5]
        )
        return MixtureWorld(prior, LinearDegradation(np.eye(2), 0.8))

    def test_loss_decreases_on_toy_task(self):
        world = self.make_world()
        rng = np.random.default_rng(1)
        model = MlpRegressor.create(2, [16], np.random.default_rng(2))
        cfg = TrainConfig(p_norm=2, learning_rate=5e-3, batch_size=64, steps=400)
        trained, losses = train(model, world.pair_stream(rng), cfg)
        assert losses.shape == (400,)
        assert losses[-50:].mean() < 0.5 * losses[:50].mean()
        assert trained.training_seed == cfg.seed

    @pytest.mark.parametrize("schedule, calls", [
        (ConstantSchedule(0.0), 0), (ConstantSchedule(0.1), 3),
        (BrownianSchedule(0.0), 3), (TableSchedule((0.0, 1.0), (0.0, 0.0)), 3)])
    def test_only_the_zero_constant_schedule_skips_the_noise_std(self, monkeypatch,
                                                                 schedule, calls):
        """Each step computes the forward noise std, except under
        ConstantSchedule(0.0), whose std is zero at every t; a schedule that
        only happens to be zero keeps the per-step path."""
        seen = []
        monkeypatch.setattr(regressor, "forward_noise_std",
                            lambda s, t: seen.append(s) or forward_noise_std(s, t))
        x = np.random.default_rng(45).normal(size=(96, 2))
        model = MlpRegressor.create(2, [8], np.random.default_rng(46))
        train(model, [(x, x)], TrainConfig(batch_size=32, steps=3, schedule=schedule))
        assert len(seen) == calls

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 2.5), ("batch_size", True), ("batch_size", 0),
        ("steps", 2.5), ("steps", True), ("steps", -1),
        ("p_norm", True), ("p_norm", 1.0), ("p_norm", 3),
    ])
    def test_counts_must_be_integers(self, field, value):
        """A bool or non-integer count is refused at construction (a float
        count failed inside train with a TypeError, and p_norm=True trained
        with p = 1)."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{field: value})
        TrainConfig(batch_size=np.int64(8), steps=np.int64(0), p_norm=np.int64(2))

    def test_zero_steps_is_identity(self):
        world = self.make_world()
        model = MlpRegressor.create(2, [8], np.random.default_rng(3))
        cfg = TrainConfig(steps=0)
        trained, losses = train(model, world.pair_stream(np.random.default_rng(4)), cfg)
        assert losses.shape == (0,)
        assert trained.training_seed is None
        for w_new, w_old in zip(trained.weights, model.weights):
            assert_array_equal(w_new, w_old)

    def test_input_model_is_untouched(self):
        world = self.make_world()
        model = MlpRegressor.create(2, [8], np.random.default_rng(5))
        before = [w.copy() for w in model.weights]
        train(model, world.pair_stream(np.random.default_rng(6)),
              TrainConfig(steps=30, batch_size=16))
        for w, b in zip(model.weights, before):
            assert_array_equal(w, b)

    def test_training_is_deterministic(self):
        world = self.make_world()
        cfg = TrainConfig(steps=50, batch_size=32, seed=9)
        runs = []
        for _ in range(2):
            model = MlpRegressor.create(2, [8], np.random.default_rng(7))
            trained, losses = train(
                model, world.pair_stream(np.random.default_rng(8)), cfg
            )
            runs.append((trained, losses))
        assert_array_equal(runs[0][1], runs[1][1])
        for wa, wb in zip(runs[0][0].weights, runs[1][0].weights):
            assert_array_equal(wa, wb)

    def test_first_step_replays_from_documented_draw_order(self):
        """Step k draws from default_rng(SeedSequence((seed, k))): first the
        batch times, then the forward noise.  Replaying that recipe by hand
        reproduces the trainer's first Adam update exactly."""
        world = self.make_world()
        seed = 21
        sched = ConstantSchedule(0.3)
        cfg = TrainConfig(
            p_norm=2, learning_rate=1e-2, batch_size=8, steps=1,
            time_dist=TimeDistribution("bias_t1"), schedule=sched, seed=seed,
        )
        model = MlpRegressor.create(2, [4], np.random.default_rng(10))
        data_rng = np.random.default_rng(77)
        trained, losses = train(model, world.pair_stream(data_rng), cfg)

        # manual replay
        replay_rng = np.random.default_rng(77)
        x, y = (a[:8] for a in next(world.pair_stream(replay_rng)))
        step_rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        t = sample_times(TimeDistribution("bias_t1"), step_rng, size=8)
        x_t = forward_interpolate(x, y, t)
        std = t * 0.3
        x_t = x_t + std[:, None] * step_rng.standard_normal(x_t.shape)
        inputs = np.concatenate([x_t, t[:, None]], axis=1)
        loss, grads_w, grads_b = loss_and_gradients(model, inputs, x, 2)
        assert_allclose(losses[0], loss, rtol=1e-15)
        grads = grads_w + grads_b
        params = [w.copy() for w in model.weights] + [b.copy() for b in model.biases]
        for p, g in zip(params, grads):
            m_hat = (1 - 0.9) * g / (1 - 0.9)
            v_hat = (1 - 0.999) * g * g / (1 - 0.999)
            p -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
        got = trained.weights + trained.biases
        for have, want in zip(got, params):
            assert_allclose(have, want, rtol=1e-12, atol=1e-15)

    def test_exhausted_stream_is_an_error(self):
        world = self.make_world()
        short = [world.sample_pairs(np.random.default_rng(1), 10)]
        with pytest.raises(ValueError, match="exhausted"):
            train(
                MlpRegressor.create(2, [4], np.random.default_rng(2)),
                iter(short),
                TrainConfig(steps=2, batch_size=8),
            )

    @settings(max_examples=15, deadline=None)
    @given(cuts=st.sets(st.integers(1, 511), max_size=12),
           batch_size=st.sampled_from([7, 64, 100, 256]))
    def test_chunk_boundaries_do_not_change_training(self, cuts, batch_size):
        """The same rows, split into chunks anywhere, train bitwise alike;
        one row per chunk is the reference, as the stream once was."""
        x, y = self.make_world().sample_pairs(np.random.default_rng(3), 512)
        cfg = TrainConfig(batch_size=batch_size, steps=512 // batch_size,
                          schedule=ConstantSchedule(0.2), seed=4)
        model = MlpRegressor.create(2, [8], np.random.default_rng(5))
        edges = [0, *sorted(cuts), 512]
        chunks = [(x[a:b], y[a:b]) for a, b in zip(edges[:-1], edges[1:])]
        rows = [(x[i:i + 1], y[i:i + 1]) for i in range(512)]
        got, got_losses = train(model, chunks, cfg)
        want, want_losses = train(model, rows, cfg)
        assert_array_equal(got_losses, want_losses)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert_array_equal(a, b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_step_and_batch_seed(self):
        world = self.make_world()
        model = MlpRegressor.create(2, [4], np.random.default_rng(30),
                                    activation="relu")
        model.weights[0][:] = 1e200
        model.weights[1][:] = 1e200
        cfg = TrainConfig(p_norm=2, steps=5, batch_size=4, seed=123)
        with pytest.raises(DivergenceError) as info:
            train(model, world.pair_stream(np.random.default_rng(31)), cfg)
        assert info.value.step_index == 0
        assert info.value.t is None
        assert str(info.value) == "non-finite loss (batch seed entropy (123, 0)) at step 0"

    def test_non_finite_pair_diverges(self):
        """A drawn pair that overflowed is a training divergence at the step
        that takes it (it was a ValueError from the pair check)."""
        x = np.ones((8, 2))
        chunks = [(x, x), (x, np.full((8, 2), np.inf))]
        model = MlpRegressor.create(2, [4], np.random.default_rng(1))
        with pytest.raises(DivergenceError) as info:
            train(model, chunks, TrainConfig(steps=3, batch_size=8))
        assert (info.value.step_index, info.value.t) == (1, None)
        assert str(info.value) == "non-finite training pair at step 1"

    def test_dimension_mismatch_rejected(self):
        prior = GaussianPrior(c=[0.0], sigma_c=1.0)
        world = GaussianWorld(prior, 1.0)
        model = MlpRegressor.create(2, [4], np.random.default_rng(1))
        with pytest.raises(ValueError):
            train(model, world.pair_stream(np.random.default_rng(2)),
                  TrainConfig(steps=1, batch_size=4))


class TestCheckpoints:
    def roundtrip(self, tmp_path, model):
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        return path, load_checkpoint(path)

    def test_roundtrip_is_exact(self, tmp_path):
        model = MlpRegressor.create(2, [5, 3], np.random.default_rng(40),
                                    activation="relu")
        model.training_seed = 987654321
        _, back = self.roundtrip(tmp_path, model)
        assert back.layer_sizes == model.layer_sizes
        assert back.activation == "relu"
        assert back.training_seed == 987654321
        for wa, wb in zip(model.weights, back.weights):
            assert_array_equal(wa, wb)
        for ba, bb in zip(model.biases, back.biases):
            assert_array_equal(ba, bb)

    def test_missing_seed_roundtrips_as_none(self, tmp_path):
        model = MlpRegressor.create(1, [2], np.random.default_rng(41))
        _, back = self.roundtrip(tmp_path, model)
        assert back.training_seed is None

    def test_header_layout(self, tmp_path):
        import struct
        model = MlpRegressor.create(1, [2], np.random.default_rng(42))
        path = tmp_path / "m.bin"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        assert blob[:8] == b"RSTEPMLP"
        assert struct.unpack("<I", blob[8:12]) == (1,)
        assert struct.unpack("<I", blob[12:16]) == (3,)    # (2, 2, 1)
        sizes = struct.unpack("<3I", blob[16:28])
        assert sizes == (2, 2, 1)
        n_params = 2 * 2 + 2 + 1 * 2 + 1
        name = b"tanh"
        want_len = 28 + 4 + len(name) + 1 + 8 + 8 * n_params
        assert len(blob) == want_len

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        model = MlpRegressor.create(1, [2], np.random.default_rng(43))
        path = tmp_path / "t.bin"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = MlpRegressor.create(1, [2], np.random.default_rng(44))
        path = tmp_path / "t.bin"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        model = MlpRegressor.create(1, [2], np.random.default_rng(45))
        path = tmp_path / "v.bin"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)


@st.composite
def _models(draw):
    """Any valid model: 1-3 state dims, up to two hidden layers, arbitrary
    finite parameters, either activation, with or without a seed."""
    dim = draw(st.integers(1, 3))
    sizes = (dim + 1, *draw(st.lists(st.integers(1, 5), max_size=2)), dim)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return MlpRegressor(
        layer_sizes=sizes,
        weights=[draw(arrays(np.float64, (o, i), elements=finite))
                 for i, o in zip(sizes[:-1], sizes[1:])],
        biases=[draw(arrays(np.float64, (o,), elements=finite)) for o in sizes[1:]],
        activation=draw(st.sampled_from(["tanh", "relu"])),
        training_seed=draw(st.none() | st.integers(0, 2**64 - 1)),
    )


def _checkpoint_blob(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_checkpoint(model, path)
        return path.read_bytes()


def _seed_flag_offset(model):
    """Byte offset of the seed flag: after magic, version, the sizes and
    the activation name."""
    return 16 + 4 * len(model.layer_sizes) + 4 + len(model.activation.encode("utf-8"))


def _load_blob(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        path.write_bytes(blob)
        return load_checkpoint(path)


class TestCheckpointProperties:
    @settings(max_examples=40, deadline=None)
    @given(model=_models())
    def test_roundtrip_is_bitwise(self, model):
        back = _load_blob(_checkpoint_blob(model))
        assert back.layer_sizes == model.layer_sizes
        assert back.activation == model.activation
        assert back.training_seed == model.training_seed
        for a, b in zip(model.weights + model.biases, back.weights + back.biases):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(model=_models())
    def test_every_strict_prefix_is_rejected(self, model):
        blob = _checkpoint_blob(model)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.bin"
            for cut in range(len(blob)):
                path.write_bytes(blob[:cut])
                with pytest.raises(ValueError):
                    load_checkpoint(path)

    @settings(max_examples=20, deadline=None)
    @given(model=_models(), extra=st.binary(min_size=1, max_size=1))
    def test_one_trailing_byte_is_rejected(self, model, extra):
        with pytest.raises(ValueError, match="trailing"):
            _load_blob(_checkpoint_blob(model) + extra)

    @settings(max_examples=20, deadline=None)
    @given(model=_models(), flag=st.integers(2, 255))
    def test_seed_flag_other_than_0_or_1_is_rejected(self, model, flag):
        blob = bytearray(_checkpoint_blob(model))
        blob[_seed_flag_offset(model)] = flag
        with pytest.raises(ValueError, match="seed flag must be 0 or 1"):
            _load_blob(bytes(blob))

    @settings(max_examples=20, deadline=None)
    @given(model=_models(), seed=st.integers(1, 2**64 - 1))
    def test_nonzero_seed_under_flag_0_is_rejected(self, model, seed):
        blob = bytearray(_checkpoint_blob(model))
        at = _seed_flag_offset(model)
        blob[at] = 0
        blob[at + 1:at + 9] = struct.pack("<Q", seed)
        with pytest.raises(ValueError, match="nonzero training seed"):
            _load_blob(bytes(blob))
