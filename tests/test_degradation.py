import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from restep.degradation import (
    BrownianSchedule,
    ConstantSchedule,
    ScheduleInvariantError,
    TableSchedule,
    forward_degrade_noisy,
    forward_interpolate,
    forward_noise_std,
    injected_noise_std,
    schedule_epsilon,
)


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

    def test_zero_schedule_collapses_to_interpolation(self):
        """With eps = 0 no random draw happens, so two different generators
        produce bit-identical results."""
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(2)
        x = np.array([[1.0, -1.0]])
        y = np.array([[0.5, 0.5]])
        sched = ConstantSchedule(0.0)
        out_a = forward_degrade_noisy(x, y, 0.3, sched, rng_a)
        out_b = forward_degrade_noisy(x, y, 0.3, sched, rng_b)
        assert_array_equal(out_a, out_b)
        assert_array_equal(out_a, forward_interpolate(x, y, 0.3))

    def test_noisy_sample_statistics(self):
        rng = np.random.default_rng(11)
        n = 200_000
        x = np.zeros((n, 1))
        y = np.zeros((n, 1))
        t = 0.5
        sched = ConstantSchedule(0.8)
        out = forward_degrade_noisy(x, y, t, sched, rng)
        want_std = t * 0.8
        assert abs(out.std() - want_std) < 3.0 * want_std / np.sqrt(2 * n)
        assert abs(out.mean()) < 3.0 * want_std / np.sqrt(n)

    def test_per_sample_times_draw_noise_where_positive(self):
        rng = np.random.default_rng(4)
        x = np.zeros((3, 2))
        y = np.zeros((3, 2))
        t = np.array([0.0, 0.0, 1.0])
        out = forward_degrade_noisy(x, y, t, ConstantSchedule(1.0), rng)
        assert_array_equal(out[:2], 0.0)
        assert np.all(out[2] != 0.0)


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
            return 1.0 + float(t)

        monkeypatch.setattr(deg, "schedule_epsilon", increasing)
        with pytest.raises(ScheduleInvariantError):
            injected_noise_std(ConstantSchedule(0.0), 0.5, 0.25)
        # the same check where eps^2 overflows
        monkeypatch.setattr(deg, "schedule_epsilon", lambda schedule, t: 1e200 * increasing(schedule, t))
        with pytest.raises(ScheduleInvariantError):
            injected_noise_std(ConstantSchedule(0.0), 0.5, 0.25)
