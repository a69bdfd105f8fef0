import re
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from restep.degradation import (
    BrownianSchedule,
    ConstantSchedule,
    TableSchedule,
    as_state,
    as_time,
    forward_interpolate,
    forward_noise_std,
    injected_noise_std,
    schedule_epsilon,
)
from restep.metrics import distortion_metrics, empirical_distribution_stats
from restep.oracles import (
    gaussian_flow_trajectory,
    gaussian_posterior_mean,
    mixture_posterior_mean,
)
from restep.regressor import MlpRegressor, TimeDistribution, TrainConfig, load_checkpoint
from restep.samplers import SamplerConfig, iterative_restore
from restep.worlds import GaussianWorld, MixtureWorld


class TestSchedules:
    def test_constant_is_flat(self):
        sched = ConstantSchedule(0.25)
        for t in (1e-9, 0.3, 1.0):
            assert schedule_epsilon(sched, t) == 0.25

    def test_brownian_variance_is_linear_in_t(self):
        """(t * eps(t))^2 = t * epsilon^2 is the defining property."""
        sched = BrownianSchedule(0.4)
        t = np.linspace(0.05, 1.0, 20)
        var = forward_noise_std(sched, t) ** 2
        assert_allclose(var, t * 0.4**2, rtol=1e-13)

    def test_brownian_rejects_t_zero(self):
        with pytest.raises(ValueError):
            schedule_epsilon(BrownianSchedule(0.1), 0.0)

    def test_table_interpolates_linearly(self):
        sched = TableSchedule(times=(0.0, 0.5, 1.0), epsilons=(0.8, 0.4, 0.4))
        assert schedule_epsilon(sched, 0.25) == pytest.approx(0.6)
        assert schedule_epsilon(sched, 0.5) == 0.4
        assert schedule_epsilon(sched, 0.75) == 0.4

    @pytest.mark.parametrize("times", [(0.2, 0.8), (0.0, 0.8), (0.2, 1.0)])
    def test_table_must_span_the_unit_interval(self, times):
        """Every query in [0, 1] is then an interpolation."""
        with pytest.raises(ValueError, match="^table times must start at 0 and end at 1$"):
            TableSchedule(times=times, epsilons=(0.3, 0.1))

    @pytest.mark.parametrize(
        "times, epsilons",
        [
            ((0.5,), (0.1,)),                 # one knot
            ((0.0, 0.0), (0.2, 0.1)),          # duplicate times
            ((0.5, 0.2), (0.2, 0.1)),          # decreasing times
            ((0.0, 1.0), (0.1, 0.2)),          # increasing epsilon
            ((0.0, 1.0), (-0.1, -0.2)),        # negative epsilon
            ((0.0, 1.5), (0.2, 0.1)),          # time beyond 1
        ],
    )
    def test_table_construction_rejects_bad_knots(self, times, epsilons):
        with pytest.raises(ValueError):
            TableSchedule(times=times, epsilons=epsilons)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            ConstantSchedule(-0.1)
        with pytest.raises(ValueError):
            BrownianSchedule(float("nan"))

    def test_array_evaluation_matches_scalar(self):
        sched = TableSchedule(times=(0.0, 1.0), epsilons=(1.0, 0.25))
        ts = np.array([0.0, 0.4, 1.0])
        batch = schedule_epsilon(sched, ts)
        singles = [schedule_epsilon(sched, float(t)) for t in ts]
        assert_allclose(batch, singles)


_MIX = MixtureWorld([[-1.0], [1.0]], [0.5, 0.5], [[1.0]], 1.0)
_GAUSS_WORLD = GaussianWorld([0.0], 1.0, 1.0)
_X = np.zeros(1)

# (call site, parameter, needs > 0, call with the parameter set to v)
_SCALAR_SITES = [
    ("ConstantSchedule", "epsilon", False, lambda v: ConstantSchedule(v)),
    ("BrownianSchedule", "epsilon", False, lambda v: BrownianSchedule(v)),
    ("MixtureWorld", "sigma", False, lambda v: MixtureWorld([[0.0]], [1.0], [[1.0]], v)),
    ("GaussianWorld", "sigma_c", True, lambda v: GaussianWorld([0.0], v, 1.0)),
    ("mixture_posterior_mean", "extra_noise_std", False,
     lambda v: mixture_posterior_mean(_MIX, _X, 0.5, v)),
    # the closed forms read sigma_n from their world, so it meets the rule on the way in
    ("gaussian_posterior_mean", "sigma_n", True,
     lambda v: gaussian_posterior_mean(GaussianWorld([0.0], 1.0, v), _X, 0.5)),
    ("gaussian_posterior_mean", "extra_noise_std", False,
     lambda v: gaussian_posterior_mean(_GAUSS_WORLD, _X, 0.5, v)),
    ("gaussian_flow_trajectory", "sigma_n", True,
     lambda v: gaussian_flow_trajectory(GaussianWorld([0.0], 1.0, v), _X, 0.5)),
    ("TimeDistribution", "a", False, lambda v: TimeDistribution("linear_a", v)),
    ("TrainConfig", "learning_rate", True, lambda v: TrainConfig(learning_rate=v)),
    ("GaussianWorld", "sigma_n", True, lambda v: GaussianWorld([0.0], 1.0, v)),
    ("distortion_metrics", "peak", True, lambda v: distortion_metrics(_X, _X, peak=v)),
    ("empirical_distribution_stats", "ref_std", True,
     lambda v: empirical_distribution_stats(np.zeros((2, 1)), 0.0, v)),
]


class TestScalarRule:
    @pytest.mark.parametrize("name, positive, call", [row[1:] for row in _SCALAR_SITES],
                             ids=[f"{row[0]}.{row[1]}" for row in _SCALAR_SITES])
    def test_every_scalar_site_applies_one_rule(self, name, positive, call):
        """Each scalar parameter refuses nan, +-inf, negatives, bools and
        strings (and 0 where it must be > 0) with a message that starts with
        its name."""
        bad = [np.nan, np.inf, -np.inf, -1.0, True, "1.0"] + ([0.0] if positive else [])
        want = f"^{name} must be finite and {'>' if positive else '>='} 0$"
        for value in bad:
            with pytest.raises(ValueError, match=want):
                call(value)
        call(1.0)
        if not positive:
            call(0.0)


def _mlp(sizes=(3, 2), weights=(np.zeros((2, 3)),), biases=(np.zeros(2),), **kw):
    return MlpRegressor(sizes, list(weights), list(biases), **kw)


def _one_size_checkpoint():
    """A checkpoint file, in the working directory, that names one layer size."""
    with open("one_size.bin", "wb") as fh:
        fh.write(b"RSTEPMLP" + struct.pack("<2I", 1, 1))
    return "one_size.bin"


# (call site, the call, its exception and message): refusals of malformed
# input, each made by one check
_REFUSALS = [
    ("as_state-scalar", lambda: as_state(1.0), ValueError,
     "state must have at least one axis, got a scalar"),
    ("as_state-string", lambda: as_state(["0.5"]), ValueError,
     "state must be a number, got ['0.5']"),
    ("as_state-bool", lambda: as_state([True], "c"), ValueError, "c must be a number, got [True]"),
    ("as_state-string-beside-wide-int", lambda: as_state([10**30, "0.5"]), ValueError,
     "state must be a number, got [1000000000000000000000000000000, '0.5']"),
    ("as_time-bool", lambda: as_time(True), ValueError, "t must be a number, got True"),
    ("as_time-string", lambda: as_time("1.0"), ValueError, "t must be a number, got '1.0'"),
    ("as_time-string-array", lambda: as_time(["0.5"], "s"), ValueError,
     "s must be a number, got ['0.5']"),
    ("TableSchedule-order", lambda: TableSchedule((0.0, 0.6, 0.4, 1.0), (0.0,) * 4),
     ValueError, "table times must be strictly increasing"),
    ("TableSchedule-slope",
     lambda: TableSchedule((0.0, 0.5, 1.0), (1.7976931348623157e308, 1.0, 1.0)),
     ValueError, "table slopes must be finite"),
    ("schedule_epsilon-type", lambda: schedule_epsilon(0.5, 0.5), TypeError,
     "unknown schedule type float"),
    ("injected_noise_std-nan", lambda: injected_noise_std(ConstantSchedule(0.0), np.nan, 0.1),
     ValueError, "t must be finite"),
    ("MixtureWorld-empty", lambda: MixtureWorld(np.empty((0, 2)), [], np.eye(2), 1.0),
     ValueError, "modes must be a non-empty (m, d) array"),
    ("MixtureWorld-negative", lambda: MixtureWorld([[0.0], [1.0]], [1.5, -0.5], [[1.0]], 1.0),
     ValueError, "weights must be >= 0"),
    ("MixtureWorld-square", lambda: MixtureWorld([[0.0, 0.0]], [1.0], [[1.0, 0.0]], 1.0),
     ValueError, "H must be square"),
    ("GaussianWorld-2d", lambda: GaussianWorld([[0.0]], 1.0, 1.0), ValueError,
     "c must be a vector"),
    ("MlpRegressor-sizes", lambda: _mlp(sizes=(3,)), ValueError,
     "layer_sizes needs >= 2 positive entries"),
    ("MlpRegressor-float-size", lambda: _mlp(sizes=(3.0, 2)), ValueError,
     "layer_sizes must be an integer >= 1, got 3.0"),
    ("create-float-hidden", lambda: MlpRegressor.create(2, [4.9], np.random.default_rng(0)),
     ValueError, "hidden must be an integer >= 1, got 4.9"),
    ("create-bool-sizes", lambda: MlpRegressor.create(True, [True], np.random.default_rng(0)),
     ValueError, "state_dim must be an integer >= 1, got True"),
    ("MlpRegressor-activation", lambda: _mlp(activation="gelu"), ValueError,
     "activation must be one of ('tanh', 'relu'), got 'gelu'"),
    ("MlpRegressor-pairs", lambda: _mlp(weights=()), ValueError,
     "need one weight/bias pair per layer"),
    ("MlpRegressor-shapes", lambda: _mlp(weights=(np.zeros((3, 2)),)), ValueError,
     "layer 0 parameter shapes do not match layer_sizes"),
    ("MlpRegressor-finite", lambda: _mlp(biases=(np.array([0.0, np.inf]),)), ValueError,
     "layer 0 parameters contain non-finite values"),
    ("predict-3d", lambda: _mlp().predict(np.zeros((1, 1, 2)), 0.5), ValueError,
     "x_t must be (d,) or (n, d), got shape (1, 1, 2)"),
    ("predict-nan-t", lambda: _mlp().predict(np.zeros(2), np.nan), ValueError,
     "t must be finite"),
    ("predict-string-t", lambda: _mlp().predict(np.zeros(2), "0.5"), ValueError,
     "t must be a number, got '0.5'"),
    ("predict-bool-t", lambda: _mlp().predict(np.zeros(2), True), ValueError,
     "t must be a number, got True"),
    ("TrainConfig-seed-range", lambda: TrainConfig(seed=2**64), ValueError,
     f"seed must be <= {2**64 - 1}, got {2**64}"),
    ("MlpRegressor-training-seed-range", lambda: _mlp(training_seed=2**64), ValueError,
     f"training_seed must be <= {2**64 - 1}, got {2**64}"),
    ("load_checkpoint-sizes", lambda: load_checkpoint(_one_size_checkpoint()), ValueError,
     "implausible layer count 1"),
    ("iterative_restore-scalar", lambda: iterative_restore(_mlp(), 1.0, SamplerConfig(1)),
     ValueError, "y must have at least one axis, got a scalar"),
    ("iterative_restore-string", lambda: iterative_restore(_mlp(), ["0.5"], SamplerConfig(1)),
     ValueError, "y must be a number, got ['0.5']"),
    ("iterative_restore-bool", lambda: iterative_restore(_mlp(), [True], SamplerConfig(1)),
     ValueError, "y must be a number, got [True]"),
    # an integer beyond the float64 range (it raised OverflowError)
    ("ConstantSchedule-huge-int", lambda: ConstantSchedule(10**400), ValueError,
     "epsilon must be finite and >= 0"),
    ("TimeDistribution-huge-int", lambda: TimeDistribution("linear_a", 10**400), ValueError,
     "a must be finite and >= 0"),
    ("TrainConfig-huge-int", lambda: TrainConfig(learning_rate=10**400), ValueError,
     "learning_rate must be finite and > 0"),
    ("distortion_metrics-huge-int", lambda: distortion_metrics([1.0], [2.0], peak=10**400),
     ValueError, "peak must be finite and > 0"),
    ("MixtureWorld-huge-int", lambda: MixtureWorld([[10**400]], [1.0], [[1.0]], 1.0),
     ValueError, "modes must be a number within the float64 range"),
    ("GaussianWorld-huge-int", lambda: GaussianWorld([0.0], 10**400, 1.0), ValueError,
     "sigma_c must be finite and > 0"),
    ("TableSchedule-huge-int", lambda: TableSchedule([0, 1], [10**400, 0]), ValueError,
     "table epsilons must be a number within the float64 range"),
    ("iterative_restore-huge-int",
     lambda: iterative_restore(_mlp(), [10**400], SamplerConfig(1)), ValueError,
     "y must be a number within the float64 range"),
    ("predict-huge-int-t", lambda: _mlp().predict(np.zeros(2), 10**400), ValueError,
     "t must be a number within the float64 range"),
    ("empirical_distribution_stats-huge-int",
     lambda: empirical_distribution_stats([0.0, 1.0], 0.0, 10**400), ValueError,
     "ref_std must be finite and > 0"),
    ("as_state-huge-negative-int", lambda: as_state([-10**400, 0.0]), ValueError,
     "state must be a number within the float64 range"),
]


def test_integers_wider_than_int64_are_numbers():
    """A JSON integer beyond int64 makes numpy build an object array; its
    entries are still numbers, so a config that holds one keeps working."""
    assert as_state([1.5, 10**30]).tolist() == [1.5, 1e30]
    assert GaussianWorld([10**30], 1.0, 1.0).c.tolist() == [1e30]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in _REFUSALS],
                         ids=[row[0] for row in _REFUSALS])
def test_malformed_input_is_refused_with_its_message(call, error, message,
                                                     tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestForwardInterpolate:
    def test_endpoints_are_exact(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 3))
        assert_array_equal(forward_interpolate(x, y, 0.0), x)
        assert_array_equal(forward_interpolate(x, y, 1.0), y)

    def test_midpoint(self):
        x = np.array([0.0, 2.0])
        y = np.array([4.0, 0.0])
        assert_allclose(forward_interpolate(x, y, 0.5), [2.0, 1.0])

    def test_per_sample_times(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(4, 2))
        t = np.array([0.0, 0.25, 0.75, 1.0])
        out = forward_interpolate(x, y, t)
        for i in range(4):
            assert_allclose(out[i], forward_interpolate(x[i], y[i], float(t[i])))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            forward_interpolate(np.zeros(3), np.zeros(4), 0.5)

    def test_time_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            forward_interpolate(np.zeros(2), np.ones(2), 1.5)

    def test_non_finite_state_rejected(self):
        with pytest.raises(ValueError):
            forward_interpolate(np.array([np.nan, 0.0]), np.zeros(2), 0.5)


class TestForwardNoise:
    def test_noise_std_continuous_at_zero(self):
        # t * eps(t) extends continuously to 0 even for the Brownian kind.
        assert forward_noise_std(BrownianSchedule(0.5), 0.0) == 0.0
        assert forward_noise_std(ConstantSchedule(0.5), 0.0) == 0.0

    def test_per_sample_noise_std_is_zero_only_at_time_zero(self):
        """An array of per-sample times, as training draws them: std 0 where
        t = 0 and t * eps(t) elsewhere."""
        t = np.array([0.0, 0.0, 0.25, 1.0])
        assert_array_equal(forward_noise_std(ConstantSchedule(1.0), t), t)
        assert_array_equal(forward_noise_std(BrownianSchedule(0.5), t), [0.0, 0.0, 0.25, 0.5])


class TestInjectedNoise:
    def test_constant_schedule_injects_nothing(self):
        sched = ConstantSchedule(0.7)
        for n in (1, 4, 10):
            delta = 1.0 / n
            for k in range(n):
                t = (n - k) / n
                assert injected_noise_std(sched, t, delta) == 0.0

    def test_brownian_closed_form(self):
        """For eps/sqrt(t) the injected variance over a step (t -> t-d) is
        eps^2 * (t - d) * d / t."""
        eps = 0.3
        sched = BrownianSchedule(eps)
        for t, delta in [(1.0, 0.1), (0.5, 0.25), (0.2, 0.1), (1.0, 0.5)]:
            got = injected_noise_std(sched, t, delta)
            want = np.sqrt(eps**2 * (t - delta) * delta / t)
            assert_allclose(got, want, rtol=1e-12)

    def test_final_step_is_noiseless(self):
        # t - delta = 0 short-circuits before the schedule is evaluated,
        # so even the Brownian schedule (undefined at 0) works.
        assert injected_noise_std(BrownianSchedule(0.4), 0.25, 0.25) == 0.0

    def test_variance_bookkeeping_identity(self):
        """The injected noise tops the carried-over noise up to exactly the
        level the schedule prescribes at the new time:

            ((t-d) eps(t))^2 + injected^2 == ((t-d) eps(t-d))^2
        """
        rng = np.random.default_rng(42)
        schedules = [
            BrownianSchedule(0.25),
            TableSchedule(times=(0.0, 0.3, 1.0), epsilons=(0.9, 0.5, 0.2)),
            TableSchedule(times=(0.0, 1.0), epsilons=(0.4, 0.4)),
        ]
        for sched in schedules:
            for _ in range(200):
                t = rng.uniform(0.05, 1.0)
                delta = rng.uniform(0.0, t - 0.01) + 0.01
                target = t - delta
                inj = injected_noise_std(sched, t, delta)
                lhs = (target * schedule_epsilon(sched, t)) ** 2 + inj**2
                rhs = (target * schedule_epsilon(sched, target)) ** 2
                assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-14)

    def test_overflowing_epsilon_squared_still_injects(self):
        """eps^2 overflows above about 1.3e154 (the std was nan, and the
        sampler then injected nothing); the std still meets the Brownian
        closed form eps * sqrt((t - d) d / t)."""
        got = injected_noise_std(BrownianSchedule(1e160), 0.5, 0.25)
        assert np.isfinite(got) and got > 0.0
        assert_allclose(got, 1e160 * np.sqrt(0.25 * 0.25 / 0.5), rtol=1e-12)

    def test_bad_step_geometry_rejected(self):
        sched = ConstantSchedule(0.1)
        with pytest.raises(ValueError):
            injected_noise_std(sched, 0.5, 0.6)    # delta > t
        with pytest.raises(ValueError):
            injected_noise_std(sched, 0.5, 0.0)    # empty step
        with pytest.raises(ValueError):
            injected_noise_std(sched, 1.5, 0.1)    # t beyond 1


def _reference_injected_std(schedule, t, delta):
    """The scalar formula injected_noise_std had before it became
    elementwise, kept verbatim (Python floats, one step at a time)."""
    target = t - delta
    if target == 0.0:
        return 0.0
    eps_prev = schedule_epsilon(schedule, target)
    eps_cur = schedule_epsilon(schedule, t)
    radicand = eps_prev * eps_prev - eps_cur * eps_cur
    scale = 1.0
    if not np.isfinite(radicand):
        ratio = eps_cur / eps_prev
        radicand, scale = 1.0 - ratio * ratio, eps_prev
    return target * scale * float(np.sqrt(max(radicand, 0.0)))  # below 0 by knot rounding


# 0, or m * 10^e with e in [-300, 299]: eps^2 underflows at the low end and
# overflows above about 1.3e154.
_EPSILONS = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 299)),
)


@st.composite
def _schedules(draw):
    """A constant, Brownian or table schedule; a table spans [0, 1] with up
    to four interior knots and non-increasing epsilons."""
    eps = draw(_EPSILONS)
    kind = draw(st.sampled_from(["constant", "brownian", "table"]))
    if kind == "constant":
        return ConstantSchedule(eps)
    if kind == "brownian":
        return BrownianSchedule(eps)
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=4, unique=True))
    times = (0.0, *sorted(inner), 1.0)
    scales = draw(st.lists(st.floats(0.0, 1.0), min_size=len(times), max_size=len(times)))
    try:
        return TableSchedule(times, tuple(eps * f for f in sorted(scales, reverse=True)))
    except ValueError as err:  # e.g. 9.99e299 over knots 0.01 and 0.010000000000000002
        assume(str(err) != "table slopes must be finite")
        raise


class TestInjectedNoiseOnGrids:
    @settings(max_examples=150, deadline=None)
    @given(schedule=_schedules(), n=st.integers(1, 300))
    def test_grid_call_keeps_every_bit_and_the_variance_bookkeeping(self, schedule, n):
        """One elementwise call over the grid t = (n - k)/n, delta = 1/n gives
        the per-step scalar formula bit for bit, and each std tops the carried
        noise up to the prescribed level, ((t-d) eps(t))^2 + std^2 =
        ((t-d) eps(t-d))^2, checked divided by eps(t-d)^2 so that it holds
        where eps^2 overflows.  Where eps(t-d)^2 underflows the std is 0 and
        the identity is not checked."""
        t = np.arange(n, 0, -1) / n
        got = injected_noise_std(schedule, t, 1.0 / n)
        want = np.array([_reference_injected_std(schedule, (n - k) / n, 1.0 / n)
                         for k in range(n)])
        assert got.shape == (n,)
        assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert got[-1] == 0.0
        target = t[:-1] - 1.0 / n
        eps_prev = schedule_epsilon(schedule, target)
        eps_cur = schedule_epsilon(schedule, t[:-1])
        ok = eps_prev > 1e-140
        target, ratio, std = target[ok], eps_cur[ok] / eps_prev[ok], got[:-1][ok] / eps_prev[ok]
        assert_allclose((target * ratio) ** 2 + std**2, target**2, rtol=1e-12)
        assert np.all(got[:-1][eps_prev == 0.0] == 0.0)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 300), j=st.integers(0, 298),
           eps=st.lists(_EPSILONS, min_size=2, max_size=2))
    @example(n=10, j=0, eps=[4.425398044605137, 0.09412864224039919])
    @example(n=162, j=0, eps=[1e155, 1e191])  # eps(t_j - 1/n) rounds to 0 below eps(t_j)
    def test_a_knot_just_above_a_grid_point_injects_nothing_below_zero(self, n, j, eps):
        """A table knot one ulp above the grid point t_j - 1/n, flat after it:
        np.interp can give eps(t_j - 1/n) below the flat value (12 ulps below
        in the example, which exited 1 from ``restep run``), so the radicand
        there is negative by rounding.  The std is finite and >= 0 on the
        whole grid, and 0 wherever a step stays on the flat part."""
        t = np.arange(n, 0, -1) / n
        knot = np.nextafter(t[j % (n - 1)] - 1.0 / n, 1.0)  # one ulp above a target
        low, high = sorted(eps)
        schedule = TableSchedule((0.0, knot, 1.0), (high, low, low))
        got = injected_noise_std(schedule, t, 1.0 / n)
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        assert np.all(got[t - 1.0 / n >= knot] == 0.0)


def _outcome(evaluate):
    """The bits of a float result, or the message of the ValueError raised."""
    try:
        with np.errstate(over="ignore"):
            return "value", np.float64(evaluate()).tobytes()
    except ValueError as err:
        return "error", str(err)


class TestScalarEpsilon:
    @settings(max_examples=300, deadline=None)
    @given(eps=_EPSILONS, brownian=st.booleans(),
           t=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-300),
                       st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0]),
                       st.floats()),
           wrap=st.sampled_from([float, np.float64, np.array]))
    def test_scalar_path_equals_the_array_path(self, eps, brownian, t, wrap):
        """A scalar t under a constant or Brownian schedule goes through
        Python floats; its result, or its error, equals the array path's
        bit for bit, subnormal t and eps^2 overflow included."""
        schedule = BrownianSchedule(eps) if brownian else ConstantSchedule(eps)
        scalar = _outcome(lambda: schedule_epsilon(schedule, wrap(t)))
        assert scalar == _outcome(lambda: schedule_epsilon(schedule, np.array([t]))[0])
        if scalar[0] == "value":
            assert type(schedule_epsilon(schedule, wrap(t))) is float
