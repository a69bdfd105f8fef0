from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from restep import samplers
from restep.degradation import (
    BrownianSchedule,
    ConstantSchedule,
    TableSchedule,
    injected_noise_std,
    schedule_epsilon,
)
from restep.samplers import (
    SamplerConfig,
    cold_diffusion_restore,
    iterative_restore,
    naive_restore,
    ode_restore,
)
from restep.worlds import DivergenceError, GaussianWorld, MixtureWorld


def gauss_oracle(sigma_c=1.0, sigma_n=1.0, c=0.0):
    world = GaussianWorld(c=[c], sigma_c=sigma_c, sigma_n=sigma_n)
    return world.oracle()


def constant_estimator(value):
    def estimate(x_t, t):
        return np.full_like(np.asarray(x_t, dtype=float), value)
    return estimate


def recording(estimator):
    """``estimator``, keeping in ``.seen`` the ``(t, state)`` of each call."""
    def estimate(x_t, t):
        estimate.seen.append((t, x_t.copy()))
        return estimator(x_t, t)
    estimate.seen = []
    return estimate


class TestInterface:
    @pytest.mark.parametrize("y", [[2.0], [[2.0], [-1.0]], [[0.5, 1.0, -3.0]]])
    def test_every_routine_returns_an_array_of_the_input_shape(self, y):
        est = constant_estimator(0.25)
        outs = [run(est, y, SamplerConfig(steps=3))
                for run in (iterative_restore, naive_restore, cold_diffusion_restore)]
        outs += [ode_restore(est, y, method, n_steps=3) for method in ("euler", "heun")]
        for out in outs:
            assert isinstance(out, np.ndarray)
            assert out.shape == np.shape(y)

    def test_the_config_holds_steps_schedule_and_seed(self):
        assert [f.name for f in fields(SamplerConfig)] == ["steps", "schedule", "seed"]


class TestSingleStep:
    def test_all_samplers_coincide_at_one_step(self):
        """With N = 1 every update reduces to a single estimator call at
        t = 1, so at this y the three samplers agree bit for bit.  In general
        cold diffusion returns y + (F - y), which can round away from F; that
        is held to two rounding errors by test_samplers_coincide_at_one_step."""
        oracle = gauss_oracle()
        y = np.array([2.0])
        cfg = SamplerConfig(steps=1)
        out_iter = iterative_restore(oracle, y, cfg)
        out_naive = naive_restore(oracle, y, cfg)
        out_cold = cold_diffusion_restore(oracle, y, cfg)
        assert_array_equal(out_iter, out_naive)
        assert_array_equal(out_iter, out_cold)
        assert_array_equal(out_iter, oracle(y, 1.0))

    def test_one_step_is_the_mmse_estimate(self):
        oracle = gauss_oracle()
        out = iterative_restore(oracle, np.array([2.0]), SamplerConfig(steps=1))
        assert_allclose(out, [1.0], rtol=1e-15)


class TestIterativeSampler:
    def test_zero_noise_runs_ignore_the_seed(self):
        oracle = gauss_oracle()
        y = np.array([1.5, -0.5])
        a = iterative_restore(oracle, y, SamplerConfig(steps=10, seed=1))
        b = iterative_restore(oracle, y, SamplerConfig(steps=10, seed=999))
        assert_array_equal(a, b)

    def test_constant_estimator_reached_exactly(self):
        """The final step carries weight delta/t = 1, so the output equals
        the estimator's value with no roundoff residue of the iterate."""
        est = constant_estimator(0.75)
        y = np.array([10.0, -3.0])
        out = iterative_restore(est, y, SamplerConfig(steps=7))
        assert_array_equal(out, np.full(2, 0.75))

    def test_trajectory_bookkeeping(self):
        """One estimator call a step, from y at t = 1 down to t = 1/n."""
        oracle = recording(gauss_oracle())
        y = np.array([2.0])
        n = 5
        iterative_restore(oracle, y, SamplerConfig(steps=n))
        assert len(oracle.seen) == n
        assert_array_equal(oracle.seen[0][1], y)
        assert_allclose([t for t, _ in oracle.seen], [(n - k) / n for k in range(n)])

    def test_initial_noise_applied_once(self):
        """A constant eps > 0 schedule perturbs the start but injects no
        per-step noise afterwards, so the rest of the run is deterministic
        given that start."""
        sched = ConstantSchedule(0.5)
        est = recording(constant_estimator(0.0))
        d = 20_000
        y = np.zeros(d)
        cfg = SamplerConfig(steps=3, schedule=sched, seed=12)
        iterative_restore(est, y, cfg)
        start = est.seen[0][1]
        assert abs(start.std() - 0.5) < 0.02
        rerun = iterative_restore(est, y, cfg)
        again = iterative_restore(est, y, cfg)
        assert_array_equal(rerun, again)

    def test_brownian_noise_changes_with_seed(self):
        sched = BrownianSchedule(0.3)
        oracle = gauss_oracle()
        y = np.array([2.0])
        a = iterative_restore(oracle, y, SamplerConfig(steps=10, schedule=sched, seed=0))
        b = iterative_restore(oracle, y, SamplerConfig(steps=10, schedule=sched, seed=1))
        assert not np.array_equal(a, b)

    def test_brownian_noise_injected_where_epsilon_squared_overflows(self):
        """At epsilon 1e160 the first step still injects its noise (it
        injected none, its std being nan)."""
        est = recording(constant_estimator(0.0))
        iterative_restore(est, np.zeros(50), SamplerConfig(4, BrownianSchedule(1e160), seed=2))
        injected = (est.seen[1][1] - 0.75 * est.seen[0][1]) / 1e160
        assert np.all(injected != 0.0)
        assert 0.5 < injected.std() / np.sqrt(0.75 * 0.25) < 1.5

    @pytest.mark.parametrize("c", [0.0, 0.5])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gaussian_oracle_under_overflowing_epsilon_lands_on_the_prior_mean(self, c):
        """Where eps(t)^2 overflows, the Gaussian oracle's estimate is its
        limit, the prior mean c (it was a nan flagged at step 0), and the
        last step, whose h / t is 1, lands on it; no RuntimeWarning (it
        printed "overflow encountered in scalar power")."""
        sched = BrownianSchedule(1e160)
        oracle = GaussianWorld(c=[c], sigma_c=1.0, sigma_n=0.5).oracle(sched)
        cfg = SamplerConfig(steps=4, schedule=sched, seed=1)
        out = iterative_restore(oracle, np.array([[0.3], [-1.0]]), cfg)
        assert_array_equal(out, [[c], [c]])

    def test_non_finite_estimate_raises_with_step_index(self):
        def bad(x_t, t):
            return np.full_like(x_t, np.nan)
        with pytest.raises(DivergenceError) as info:
            iterative_restore(bad, np.array([1.0]), SamplerConfig(steps=4))
        assert info.value.step_index == 0
        assert str(info.value) == "non-finite estimate at step 0 (t = 1)"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow under test
    @pytest.mark.parametrize("y, epsilon", [([2.0, np.inf], 0.0), ([2.0] * 50, 1.7e308)])
    def test_non_finite_start_diverges_at_step_zero(self, y, epsilon):
        """An observation that overflowed, or start noise eps(1) * n that
        does, is a divergence of the run (it was a ValueError from the
        estimator's input check)."""
        cfg = SamplerConfig(steps=4, schedule=ConstantSchedule(epsilon), seed=3)
        with pytest.raises(DivergenceError, match=r"^non-finite start at step 0 \(t = 1\)$"):
            iterative_restore(gauss_oracle(), np.array(y), cfg)

    def test_batch_input_runs_rowwise(self):
        oracle = gauss_oracle()
        ys = np.array([[2.0], [-1.0], [0.5]])
        batch = iterative_restore(oracle, ys, SamplerConfig(steps=8))
        for i in range(3):
            single = iterative_restore(oracle, ys[i], SamplerConfig(steps=8))
            assert_allclose(batch[i], single, rtol=1e-15)

    def test_step_count_validated(self):
        with pytest.raises(ValueError):
            SamplerConfig(steps=0)

    @pytest.mark.parametrize("steps", [True, np.True_, 2.0, 2.5, "3"])
    def test_step_count_must_be_an_integer(self, steps):
        """A bool (which ran one step) or a non-integer is refused."""
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            SamplerConfig(steps=steps)
        assert SamplerConfig(steps=np.int64(2)).steps == 2


class TestOtherSamplers:
    def test_naive_calls_its_estimator_once_a_step(self):
        oracle = recording(gauss_oracle())
        naive_restore(oracle, np.array([2.0]), SamplerConfig(steps=4))
        assert [t for t, _ in oracle.seen] == [1.0, 0.75, 0.5, 0.25]

    def test_cold_diffusion_first_step_formula(self):
        # One step of x + delta (F - y) from x = y.
        oracle = gauss_oracle()
        y = np.array([2.0])
        out = cold_diffusion_restore(oracle, y, SamplerConfig(steps=1))
        assert_allclose(out, y + 1.0 * (oracle(y, 1.0) - y))

    def test_cold_diffusion_keeps_an_iterate_whose_correction_overflows(self):
        """Where est - y overflows but x + h (est - y) is a float, the update is
        that float (it warned and was flagged at step 0); an entry that does not
        overflow keeps the bits of x + h (est - y).  Modes at +-1e308 seen
        through H = -1 give every row such a first step."""
        x, est, y = np.array([1.0, -1e308]), np.array([0.3, 1e308]), np.array([0.7, -1e308])
        out = samplers._cold_diffusion_rule(x, est, 1.0, 0.25, 0.0, 0, y, None)
        assert out.tobytes() == np.array([1.0 + 0.25 * (0.3 - 0.7), -0.5e308]).tobytes()
        world = MixtureWorld(modes=[[1e308], [-1e308]], weights=[0.5, 0.5], H=[[-1.0]],
                             sigma=0.0)
        out = cold_diffusion_restore(world.oracle(), [[-1e308], [1e308]], SamplerConfig(4))
        assert_array_equal(out, [[7.5e307], [-7.5e307]])

    def test_naive_final_step_is_full_estimator_weight(self):
        est = constant_estimator(0.25)
        out = naive_restore(est, np.array([4.0]), SamplerConfig(steps=6))
        assert_array_equal(out, np.array([0.25]))


class TestOdeEquivalence:
    @pytest.mark.parametrize("n", [1, 3, 5, 50])
    def test_euler_matches_iterative_bitwise(self, n):
        """The Euler integrator evaluates the identical convex arithmetic
        as the discrete sampler, so zero-noise runs agree exactly, not
        merely to rounding."""
        oracle = gauss_oracle(sigma_c=0.9, sigma_n=1.1, c=0.2)
        y = np.array([1.7, -2.3])
        discrete = iterative_restore(oracle, y, SamplerConfig(steps=n))
        ode = ode_restore(oracle, y, method="euler", n_steps=n)
        assert_array_equal(discrete, ode)

    def test_heun_is_second_order(self):
        """Halving the step size cuts the Heun error by about four and the
        Euler error by about two, both measured against the flow's exact
        endpoint at t = 0 (the last step of each is the terminal map)."""
        world = GaussianWorld(c=[0.0], sigma_c=1.0, sigma_n=1.0)
        oracle = world.oracle()
        y = np.array([2.0])

        from restep.oracles import gaussian_flow_trajectory
        want = gaussian_flow_trajectory(world, y, 0.0)

        def err(method, n):
            return float(np.abs(ode_restore(oracle, y, method=method, n_steps=n) - want).max())

        for n in (20, 40):
            assert 1.6 < err("euler", n) / err("euler", 2 * n) < 2.5
            assert 3.2 < err("heun", n) / err("heun", 2 * n) < 5.0

    def test_heun_beats_euler_at_equal_steps(self):
        world = GaussianWorld(c=[0.0], sigma_c=1.0, sigma_n=1.0)
        oracle = world.oracle()
        y = np.array([2.0])
        from restep.oracles import gaussian_flow_trajectory
        want = gaussian_flow_trajectory(world, y, 0.0)
        e_euler = abs(ode_restore(oracle, y, "euler", 50) - want).max()
        e_heun = abs(ode_restore(oracle, y, "heun", 50) - want).max()
        assert e_heun < e_euler / 5

    def test_unknown_method_is_refused(self):
        with pytest.raises(ValueError, match="method must be 'euler' or 'heun'"):
            ode_restore(gauss_oracle(), np.array([1.0]), method="rk4", n_steps=10)

    @pytest.mark.parametrize("n_steps", [True, 10.0, 0])
    def test_step_count_must_be_an_integer(self, n_steps):
        """A bool (which ran one step) or a non-integer is refused."""
        with pytest.raises(ValueError, match="n_steps must be an integer >= 1"):
            ode_restore(gauss_oracle(), np.array([1.0]), n_steps=n_steps)


class TestStepList:
    def test_each_run_queries_the_injected_std_once(self, monkeypatch):
        """Every run builds its step list with one elementwise call, at the
        module global the benchmark tracer wraps."""
        calls = []

        def counting(schedule, t, delta):
            calls.append(np.shape(t))
            return injected_noise_std(schedule, t, delta)

        monkeypatch.setattr(samplers, "injected_noise_std", counting)
        oracle = gauss_oracle()
        y = np.array([[2.0], [-1.0]])
        cfg = SamplerConfig(steps=25, schedule=BrownianSchedule(0.3), seed=4)
        for run in (iterative_restore, naive_restore, cold_diffusion_restore):
            calls.clear()
            run(oracle, y, cfg)
            assert calls == [(25,)], run.__name__
        for method in ("euler", "heun"):
            calls.clear()
            ode_restore(oracle, y, method, n_steps=25)
            assert calls == [(25,)], method


    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_estimators_are_called_at_the_step_list_times(self, n):
        """The three samplers and Euler call their estimator once at each t
        of the step list; Heun also at each t - h but on the last step, the
        terminal map, so it makes 2N - 1 calls."""
        oracle = gauss_oracle()
        y = np.array([[2.0], [-1.0]])
        cfg = SamplerConfig(steps=n, schedule=BrownianSchedule(0.3), seed=4)
        grid = [t for t, _, _ in samplers._steps(n, cfg.schedule)]
        times = []

        def calls_of(run, *args):
            def recording(x, t):
                times.append(t)
                return oracle(x, t)
            times.clear()
            run(recording, y, *args)
            return list(times)

        for run in (iterative_restore, naive_restore, cold_diffusion_restore):
            assert calls_of(run, cfg) == grid, run.__name__
        assert calls_of(ode_restore, "euler", n) == grid
        heun = calls_of(ode_restore, "heun", n)
        assert heun == [s for t in grid for s in (t, t - 1.0 / n)][:-1]
        assert len(heun) == 2 * n - 1

    @pytest.mark.parametrize("bad_call, step, t", [(2, 1, 0.75), (3, 1, 0.5), (6, 3, 0.25)])
    def test_heun_divergence_names_its_step(self, bad_call, step, t):
        """A non-finite estimate on a Heun step's first call, on its
        predictor call or on the terminal map diverges at that step."""
        calls = []

        def estimate(x, s):
            calls.append(s)
            return np.full(np.shape(x), np.nan if len(calls) == bad_call + 1 else 0.5)

        with pytest.raises(DivergenceError) as err:
            ode_restore(estimate, np.array([1.0]), "heun", n_steps=4)
        assert (err.value.step_index, err.value.t) == (step, t)


# A single state (d,) or a batch (m, d), d in 1..3, with moderate entries.
_STATES = arrays(
    np.float64,
    st.tuples(st.integers(0, 4), st.integers(1, 3)).map(
        lambda md: (md[1],) if md[0] == 0 else md),
    elements=st.floats(-10.0, 10.0, allow_nan=False),
)


def _gauss_oracle_for(y):
    return GaussianWorld(c=np.full(y.shape[-1], 0.2), sigma_c=0.9, sigma_n=1.1).oracle()


class TestGeneratedInputs:
    @settings(max_examples=30, deadline=None)
    @given(y=_STATES, n=st.integers(1, 60))
    def test_euler_is_the_zero_noise_stepwise_rule(self, y, n):
        oracle = recording(_gauss_oracle_for(y))
        out = iterative_restore(oracle, y, SamplerConfig(steps=n))
        assert_array_equal(ode_restore(oracle, y, method="euler", n_steps=n), out)
        assert [t for t, _ in oracle.seen] == [(n - k) / n for k in range(n)] * 2

    @settings(max_examples=30, deadline=None)
    @given(y=_STATES)
    def test_samplers_coincide_at_one_step(self, y):
        """Iterative and naive return F(y, 1) bit for bit.  Cold diffusion
        returns y + (F - y), which can round away from F by about one ulp
        (y = 4.00195312 does), so it is held to two rounding errors."""
        oracle = _gauss_oracle_for(y)
        cfg = SamplerConfig(steps=1)
        want = oracle(y, 1.0)
        assert_array_equal(iterative_restore(oracle, y, cfg), want)
        assert_array_equal(naive_restore(oracle, y, cfg), want)
        cold = cold_diffusion_restore(oracle, y, cfg)
        assert np.all(np.abs(cold - want) <= np.spacing(2 * np.maximum(abs(y), abs(want))))


def _reference_iterative(estimator, y, schedule, n, seed):
    """The small-step sampler as a plain per-step loop that asks for each
    step's injected std as it goes; the rng is used in the same order."""
    rng = np.random.default_rng(seed)
    x = np.array(y, dtype=np.float64)
    eps1 = schedule_epsilon(schedule, 1.0)
    if eps1 > 0.0:
        x += eps1 * rng.standard_normal(x.shape)
    traj = []
    for k in range(n):
        t, h = (n - k) / n, 1.0 / n
        traj.append((t, x.copy()))
        coef = h / t
        x = coef * estimator(x, t) + (1.0 - coef) * x
        std = injected_noise_std(schedule, t, h)
        if std > 0.0:
            x = x + std * rng.standard_normal(x.shape)
    traj.append((0.0, x.copy()))
    return x, traj


@st.composite
def _noisy_schedules(draw):
    """A Brownian schedule, or a table on [0, 1] with non-increasing epsilons."""
    eps = draw(st.floats(0.0, 2.0))
    if draw(st.booleans()):
        return BrownianSchedule(eps)
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=3, unique=True))
    times = (0.0, *sorted(inner), 1.0)
    scales = draw(st.lists(st.floats(0.0, 1.0), min_size=len(times), max_size=len(times)))
    return TableSchedule(times, tuple(eps * f for f in sorted(scales, reverse=True)))


class TestStepListProperties:
    @settings(max_examples=40, deadline=None)
    @given(y=_STATES, schedule=_noisy_schedules(), n=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1))
    def test_iterative_is_the_per_step_loop(self, y, schedule, n, seed):
        """The step list built once per run gives the output and trajectory
        of the per-step loop bit for bit."""
        oracle = GaussianWorld(c=np.full(y.shape[-1], 0.2), sigma_c=0.9,
                               sigma_n=1.1).oracle(schedule)
        watched = recording(oracle)
        out = iterative_restore(watched, y, SamplerConfig(steps=n, schedule=schedule, seed=seed))
        traj = [*watched.seen, (0.0, out)]
        want, want_traj = _reference_iterative(oracle, y, schedule, n, seed)
        assert_array_equal(out.view(np.uint64), want.view(np.uint64))
        assert [t for t, _ in traj] == [t for t, _ in want_traj]
        for (_, got), (_, ref) in zip(traj, want_traj):
            assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
