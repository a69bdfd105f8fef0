import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from restep.degradation import (
    BrownianSchedule,
    ConstantSchedule,
    ScheduleInvariantError,
    TableSchedule,
    forward_interpolate,
    forward_noise_std,
    injected_noise_std,
    schedule_epsilon,
)
from restep.metrics import distortion_metrics, empirical_distribution_stats
from restep.oracles import (
    GaussianMixturePrior,
    GaussianPrior,
    LinearDegradation,
    gaussian_flow_trajectory,
    gaussian_posterior_mean,
    mixture_posterior_mean,
    score_from_denoiser,
)
from restep.regressor import TimeDistribution, TrainConfig
from restep.worlds import GaussianWorld


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

    def test_table_rejects_queries_outside_domain(self):
        sched = TableSchedule(times=(0.2, 0.8), epsilons=(0.3, 0.1))
        with pytest.raises(ValueError):
            schedule_epsilon(sched, 0.1)
        with pytest.raises(ValueError):
            schedule_epsilon(sched, 0.9)

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


_MIX = GaussianMixturePrior([[-1.0], [1.0]], [0.5, 0.5])
_GAUSS = GaussianPrior([0.0], 1.0)
_X = np.zeros(1)

# (call site, parameter, needs > 0, call with the parameter set to v)
_SCALAR_SITES = [
    ("ConstantSchedule", "epsilon", False, lambda v: ConstantSchedule(v)),
    ("BrownianSchedule", "epsilon", False, lambda v: BrownianSchedule(v)),
    ("LinearDegradation", "sigma", False, lambda v: LinearDegradation([[1.0]], v)),
    ("GaussianPrior", "sigma_c", True, lambda v: GaussianPrior([0.0], v)),
    ("mixture_posterior_mean", "extra_noise_std", False,
     lambda v: mixture_posterior_mean(_MIX, LinearDegradation([[1.0]], 1.0), _X, 0.5, v)),
    ("gaussian_posterior_mean", "sigma_n", True,
     lambda v: gaussian_posterior_mean(_GAUSS, v, _X, 0.5)),
    ("gaussian_posterior_mean", "extra_noise_std", False,
     lambda v: gaussian_posterior_mean(_GAUSS, 1.0, _X, 0.5, v)),
    ("gaussian_flow_trajectory", "sigma_n", True,
     lambda v: gaussian_flow_trajectory(_GAUSS, v, _X, 0.5)),
    ("score_from_denoiser", "sigma_t", True, lambda v: score_from_denoiser(_X, _X, v)),
    ("TimeDistribution", "a", False, lambda v: TimeDistribution("linear_a", v)),
    ("TrainConfig", "learning_rate", True, lambda v: TrainConfig(learning_rate=v)),
    ("GaussianWorld", "sigma_n", True, lambda v: GaussianWorld(_GAUSS, v)),
    ("distortion_metrics", "peak", True, lambda v: distortion_metrics(_X, _X, peak=v)),
    ("empirical_distribution_stats", "ref_std", True,
     lambda v: empirical_distribution_stats(np.zeros((2, 1)), 0.0, v)),
]


class TestScalarRule:
    @pytest.mark.parametrize("name, positive, call", [row[1:] for row in _SCALAR_SITES],
                             ids=[f"{row[0]}.{row[1]}" for row in _SCALAR_SITES])
    def test_every_scalar_site_applies_one_rule(self, name, positive, call):
        """Each scalar parameter refuses nan, +-inf and negatives (and 0 where
        it must be > 0) with a message that starts with its name."""
        bad = [np.nan, np.inf, -np.inf, -1.0] + ([0.0] if positive else [])
        want = f"^{name} must be finite and {'>' if positive else '>='} 0$"
        for value in bad:
            with pytest.raises(ValueError, match=want):
                call(value)
        call(1.0)
        if not positive:
            call(0.0)


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

    def test_schedule_invariant_violation_raises(self, monkeypatch):
        """A schedule that grows between query points breaks the invariant
        the injection formula relies on and must fail loudly."""
        import restep.degradation as deg

        def increasing(schedule, t):
            return 1.0 + np.asarray(t, float)

        monkeypatch.setattr(deg, "schedule_epsilon", increasing)
        with pytest.raises(ScheduleInvariantError):
            injected_noise_std(ConstantSchedule(0.0), 0.5, 0.25)
        # the same check where eps^2 overflows
        monkeypatch.setattr(deg, "schedule_epsilon", lambda schedule, t: 1e200 * increasing(schedule, t))
        with pytest.raises(ScheduleInvariantError):
            injected_noise_std(ConstantSchedule(0.0), 0.5, 0.25)


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
    return target * scale * float(np.sqrt(radicand))


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
    return TableSchedule(times, tuple(eps * f for f in sorted(scales, reverse=True)))


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
