"""Iterative restoration of linearly degraded, noisy signals.

The package walks an observation back to a clean signal in small steps:
each step asks an estimator for its best guess of the clean signal given
the current iterate and the current degradation level t, then moves a
fraction of the way toward that guess.  Exact posterior-mean estimators
for Gaussian-mixture and Gaussian worlds live in :mod:`restep.oracles`;
a small trainable regressor with hand-rolled backprop and Adam lives in
:mod:`restep.regressor`; samplers (including the ODE view of the
noise-free limit) live in :mod:`restep.samplers`; experiment configs,
runners, and CSV/JSON reports live in :mod:`restep.harness`.
"""

from .degradation import (
    BrownianSchedule,
    ConstantSchedule,
    NoiseSchedule,
    ScheduleInvariantError,
    TableSchedule,
    forward_degrade_noisy,
    forward_interpolate,
    forward_noise_std,
    injected_noise_std,
    schedule_epsilon,
)
from .harness import (
    EXPERIMENT_KINDS,
    ConfigError,
    RunReport,
    default_config,
    emit_report,
    load_config,
    resolve_config,
    run_experiment,
    schedule_from_config,
    world_from_config,
)
from .metrics import (
    DistributionStats,
    MetricReport,
    distortion_metrics,
    empirical_distribution_stats,
    nearest_mode,
    nearest_modes,
)
from .oracles import (
    GaussianDenoisingOracle,
    GaussianMixturePrior,
    GaussianPrior,
    LinearDegradation,
    MixturePosteriorOracle,
    blended_operator,
    gaussian_flow_trajectory,
    gaussian_mmse,
    gaussian_posterior_mean,
    mixture_marginal_density,
    mixture_posterior_mean,
    posterior_mean_at_s,
    score_from_denoiser,
)
from .regressor import (
    TIME_DISTRIBUTION_KINDS,
    MlpRegressor,
    TimeDistribution,
    TrainConfig,
    TrainingDivergenceError,
    load_checkpoint,
    loss_and_gradients,
    sample_times,
    save_checkpoint,
    time_distribution_cdf,
    train,
)
from .samplers import (
    NonFiniteIterateError,
    SamplerConfig,
    Trajectory,
    cold_diffusion_restore,
    iterative_restore,
    naive_restore,
    ode_restore,
    residual_flow_rhs,
)
from .worlds import (
    DivergenceError,
    DivergenceGuard,
    GaussianWorld,
    MixtureWorld,
    derive_rng,
    derive_seed,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # degradation
    "BrownianSchedule", "ConstantSchedule", "NoiseSchedule",
    "ScheduleInvariantError", "TableSchedule", "forward_degrade_noisy",
    "forward_interpolate", "forward_noise_std", "injected_noise_std",
    "schedule_epsilon",
    # oracles
    "GaussianDenoisingOracle", "GaussianMixturePrior", "GaussianPrior",
    "LinearDegradation", "MixturePosteriorOracle", "blended_operator",
    "gaussian_flow_trajectory", "gaussian_mmse", "gaussian_posterior_mean",
    "mixture_marginal_density", "mixture_posterior_mean", "posterior_mean_at_s",
    "score_from_denoiser",
    # samplers
    "NonFiniteIterateError", "SamplerConfig", "Trajectory",
    "cold_diffusion_restore", "iterative_restore", "naive_restore",
    "ode_restore", "residual_flow_rhs",
    # regressor
    "TIME_DISTRIBUTION_KINDS", "MlpRegressor", "TimeDistribution",
    "TrainConfig", "TrainingDivergenceError", "load_checkpoint",
    "loss_and_gradients", "sample_times", "save_checkpoint",
    "time_distribution_cdf", "train",
    # metrics
    "DistributionStats", "MetricReport", "distortion_metrics",
    "empirical_distribution_stats", "nearest_mode", "nearest_modes",
    # worlds
    "DivergenceError", "DivergenceGuard", "GaussianWorld", "MixtureWorld",
    "derive_rng", "derive_seed",
    # harness
    "EXPERIMENT_KINDS", "ConfigError", "RunReport", "default_config",
    "emit_report", "load_config", "resolve_config", "run_experiment",
    "schedule_from_config", "world_from_config",
]
