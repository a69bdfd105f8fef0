"""Experiment harness: validated configs, named experiments, reports.

An experiment is described by a JSON-compatible dict (see
:func:`default_config` for the schema and per-kind defaults) and executed
by :func:`run_experiment`, which produces a :class:`RunReport` and, by
default, writes it to the configured output directory via
:func:`emit_report` as CSV (rows only) and JSON (config echo, rows, and
timing metadata).  Numeric cells are written with 17 significant digits so
both formats round-trip bit-exactly through decimal; CSV output carries no
timing, so identical configs and seeds yield byte-identical CSV files.

Experiment kinds are defined once, in ``_KINDS``: each entry holds the
kind's default config sections, the world type it needs and its runner.
The kind list, the defaults, the world-type check and the runner dispatch
all come from that table; the README's kinds table says what each measures.

Independent (variant, replicate) cells own random sources derived from
(master seed, variant index, replicate index) by the rule documented at
:func:`restep.worlds.derive_rng`; with ``jobs > 1`` the cells run in a
process pool and the report is assembled in deterministic grid order
either way.  A cell whose run trips the divergence guard (iterate norm
beyond 1e6 times its initial value) or hits a non-finite iterate is
flagged in its row and the remaining cells continue.
"""

from __future__ import annotations

import copy
import json
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .degradation import (
    BrownianSchedule,
    ConstantSchedule,
    TableSchedule,
    schedule_epsilon,
)
from .metrics import distortion_metrics, empirical_distribution_stats, nearest_modes
from .oracles import (
    GaussianMixturePrior,
    GaussianPrior,
    LinearDegradation,
    gaussian_flow_trajectory,
)
from .regressor import (
    TIME_DISTRIBUTION_KINDS,
    MlpRegressor,
    TimeDistribution,
    TrainConfig,
    save_checkpoint,
    train,
)
from .samplers import (
    NonFiniteIterateError,
    SamplerConfig,
    cold_diffusion_restore,
    iterative_restore,
    naive_restore,
)
from .worlds import (
    DivergenceError,
    DivergenceGuard,
    GaussianWorld,
    MixtureWorld,
    derive_rng,
    derive_seed,
)

__all__ = [
    "EXPERIMENT_KINDS",
    "ConfigError",
    "RunReport",
    "default_config",
    "emit_report",
    "load_config",
    "resolve_config",
    "run_experiment",
    "schedule_from_config",
    "world_from_config",
]

SAMPLER_NAMES = ("iterative", "naive", "cold_diffusion")

_SAMPLER_FNS = {
    "iterative": iterative_restore,
    "naive": naive_restore,
    "cold_diffusion": cold_diffusion_restore,
}

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid experiment config; the message starts with the field path."""


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


# ---- defaults ---- #

_UNIT_SQUARE_MODES = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
_EQUAL_WEIGHTS = [0.25, 0.25, 0.25, 0.25]
_IDENTITY_2D = [[1.0, 0.0], [0.0, 1.0]]
_PROJECT_FIRST_2D = [[1.0, 0.0], [0.0, 0.0]]
_ZERO_2D = [[0.0, 0.0], [0.0, 0.0]]
_GAUSS_WORLD = {"type": "gaussian", "c": [0.0], "sigma_c": 1.0, "sigma_n": 1.0}


def _mixture_world(H, sigma):
    return {
        "type": "mixture",
        "modes": _UNIT_SQUARE_MODES,
        "weights": _EQUAL_WEIGHTS,
        "H": H,
        "sigma": sigma,
    }


def _train_section(hidden, steps, batch_size, time_dist_kind):
    return {
        "hidden": hidden,
        "activation": "tanh",
        "p_norm": 1,
        "learning_rate": 2e-3,
        "batch_size": batch_size,
        "steps": steps,
        "time_dist": {"kind": time_dist_kind, "a": 0.0},
        "schedule": {"kind": "constant", "epsilon": 0.0},
    }


def _sections(world, steps=100, train=None, **ev):
    """A kind's default sections, in the order the config echo keeps."""
    sampler = {
        "steps": steps,
        "schedule": {"kind": "constant", "epsilon": 0.0},
        "record_trajectory": False,
    }
    out = {"world": world, "sampler": sampler}
    if train is not None:
        out["train"] = train
    out["eval"] = ev
    return out


def default_config(kind: str) -> dict:
    """A complete, runnable config dict for ``kind`` (a fresh copy).

    The mixture worlds put equal-weight modes at the unit-square corners;
    sigma = 1.0 for the identity observation (strong noise relative to the
    mode separation), 0.3 for the rank-deficient one, both package
    conventions.
    """
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"kind: must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "seed": 0,
        "out_dir": "restep-out",
        **copy.deepcopy(_KINDS[kind].sections),
    }


# ---- config loading, merging, validation ---- #


def load_config(path) -> dict:
    """Read a JSON config file; I/O and parse problems become ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"config: cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config: {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    return raw


# Sections whose sub-keys merge individually; everything else (including
# world/schedule/time_dist variants) is replaced wholesale.
_MERGE_SECTIONS = ("sampler", "eval", "train")


def _merge(defaults: dict, override: dict) -> dict:
    out = copy.deepcopy(defaults)
    for key, val in override.items():
        _require(key in defaults, key, "unknown config field")
        if key in _MERGE_SECTIONS:
            _require(isinstance(val, dict), key, "must be a mapping")
            section = out[key]
            for sub, subval in val.items():
                _require(sub in section, f"{key}.{sub}", "unknown config field")
                section[sub] = copy.deepcopy(subval)
        else:
            out[key] = copy.deepcopy(val)
    return out


def schedule_from_config(d, path: str = "schedule"):
    _require(isinstance(d, dict), path, "must be a mapping")
    kind = d.get("kind")
    _require(
        kind in ("constant", "brownian", "table"),
        f"{path}.kind", f"must be constant, brownian, or table, got {kind!r}",
    )
    fields = {"kind", "times", "epsilons"} if kind == "table" else {"kind", "epsilon"}
    _require(set(d) <= fields, path, "unknown field in schedule")
    try:
        if kind == "constant":
            return ConstantSchedule(float(d["epsilon"]))
        if kind == "brownian":
            return BrownianSchedule(float(d["epsilon"]))
        schedule = TableSchedule(tuple(d["times"]), tuple(d["epsilons"]))
    except KeyError as err:
        raise ConfigError(f"{path}: missing field {err.args[0]!r}") from err
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err
    # Samplers query eps on all of [0, 1]; a table that stops short fails there.
    _require(
        schedule.times[0] == 0.0 and schedule.times[-1] == 1.0,
        f"{path}.times", "must start at 0 and end at 1",
    )
    return schedule


def world_from_config(d, path: str = "world"):
    _require(isinstance(d, dict), path, "must be a mapping")
    wtype = d.get("type")
    _require(
        wtype in ("mixture", "gaussian"),
        f"{path}.type", f"must be mixture or gaussian, got {wtype!r}",
    )
    fields = (
        {"type", "modes", "weights", "H", "sigma"} if wtype == "mixture"
        else {"type", "c", "sigma_c", "sigma_n"}
    )
    _require(set(d) <= fields, path, "unknown field in world")
    try:
        if wtype == "mixture":
            prior = GaussianMixturePrior(d["modes"], d["weights"])
            return MixtureWorld(prior, LinearDegradation(d["H"], float(d["sigma"])))
        prior = GaussianPrior(d["c"], float(d["sigma_c"]))
        return GaussianWorld(prior, float(d["sigma_n"]))
    except KeyError as err:
        raise ConfigError(f"{path}: missing field {err.args[0]!r}") from err
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _time_dist_from_config(d, path: str = "train.time_dist"):
    _require(isinstance(d, dict), path, "must be a mapping")
    _require(set(d) <= {"kind", "a"}, path, "unknown field in time_dist")
    try:
        return TimeDistribution(str(d["kind"]), float(d.get("a", 0.0)))
    except KeyError as err:
        raise ConfigError(f"{path}: missing field {err.args[0]!r}") from err
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _train_config(section: dict, seed: int, time_dist: TimeDistribution) -> TrainConfig:
    """The TrainConfig of a ``train`` section whose numbers are checked."""
    schedule = schedule_from_config(section["schedule"], "train.schedule")
    try:
        return TrainConfig(
            p_norm=int(section["p_norm"]),
            learning_rate=float(section["learning_rate"]),
            batch_size=int(section["batch_size"]),
            steps=int(section["steps"]),
            time_dist=time_dist,
            schedule=schedule,
            seed=seed,
        )
    except ValueError as err:
        raise ConfigError(f"train: {err}") from err


def _check_int(value, path, minimum=None):
    _require(
        isinstance(value, (int, np.integer)) and not isinstance(value, bool),
        path, f"must be an integer, got {value!r}",
    )
    if minimum is not None:
        _require(value >= minimum, path, f"must be >= {minimum}")
    return int(value)


def _check_number(value, path, positive=False):
    _require(
        isinstance(value, (int, float, np.integer, np.floating))
        and not isinstance(value, bool) and np.isfinite(value),
        path, f"must be a finite number, got {value!r}",
    )
    if positive:
        _require(value > 0, path, "must be > 0")
    return float(value)


def _check_list(value, path, what):
    _require(
        isinstance(value, (list, tuple)) and len(value) >= 1,
        path, f"must be a non-empty list{what}",
    )
    return value


def _validate_eval(ev: dict):
    """Check the eval fields a kind has; which it has comes from its defaults."""
    if "probe_y" in ev:
        probe = _check_list(ev["probe_y"], "eval.probe_y", " of numbers")
        for j, v in enumerate(probe):
            _check_number(v, f"eval.probe_y[{j}]")
        return
    _check_int(ev["n_inputs"], "eval.n_inputs", minimum=1)
    if "hit_threshold" in ev:
        _check_number(ev["hit_threshold"], "eval.hit_threshold", positive=True)
    if "step_grid" in ev:
        grid = _check_list(ev["step_grid"], "eval.step_grid", " of integers")
        for j, v in enumerate(grid):
            _check_int(v, f"eval.step_grid[{j}]", minimum=1)
    if "samplers" in ev:
        for name in _check_list(ev["samplers"], "eval.samplers", ""):
            _require(name in SAMPLER_NAMES, "eval.samplers", f"unknown sampler {name!r}")
    if "estimator" in ev:
        _require(
            ev["estimator"] in ("oracle", "trained"),
            "eval.estimator", "must be 'oracle' or 'trained'",
        )
    if "time_dists" in ev:
        for name in _check_list(ev["time_dists"], "eval.time_dists", ""):
            _require(
                name in TIME_DISTRIBUTION_KINDS,
                "eval.time_dists", f"unknown time distribution {name!r}",
            )
        _check_number(ev["a"], "eval.a")
        _require(ev["a"] >= 0, "eval.a", "must be >= 0")
    if "schedules" in ev:
        schedules = _check_list(ev["schedules"], "eval.schedules", " of schedules")
        for j, sd in enumerate(schedules):
            schedule_from_config(sd, f"eval.schedules[{j}]")


def _validate_train(section: dict):
    hidden = _check_list(section["hidden"], "train.hidden", " of widths")
    for j, h in enumerate(hidden):
        _check_int(h, f"train.hidden[{j}]", minimum=1)
    _require(
        section["activation"] in ("tanh", "relu"),
        "train.activation", "must be 'tanh' or 'relu'",
    )
    _check_int(section["p_norm"], "train.p_norm")
    _check_number(section["learning_rate"], "train.learning_rate", positive=True)
    _check_int(section["batch_size"], "train.batch_size", minimum=1)
    _check_int(section["steps"], "train.steps", minimum=1)
    _train_config(section, 0, _time_dist_from_config(section["time_dist"]))


# An eval list a kind sweeps replaces the one field its runner would
# otherwise read, so a changed value there would be silently ignored.
_SWEPT_FIELDS = {
    "schedules": ("sampler", "schedule"),
    "step_grid": ("sampler", "steps"),
    "time_dists": ("train", "time_dist"),
}


def resolve_config(raw: dict) -> dict:
    """Merge ``raw`` over its kind's defaults and validate everything.

    Returns the fully resolved dict that the runners consume and the
    report echoes.  Unknown fields, missing fields, and out-of-range
    values raise :class:`ConfigError` with the offending field path.
    """
    _require(isinstance(raw, dict), "config", "must be a mapping")
    kind = raw.get("kind")
    _require(kind is not None, "kind", "is required")
    cfg = _merge(default_config(kind), raw)
    _require(
        cfg["schema_version"] == SCHEMA_VERSION,
        "schema_version", f"must be {SCHEMA_VERSION}",
    )
    seed = _check_int(cfg["seed"], "seed", minimum=0)
    _require(seed < 2**64, "seed", "must fit in 64 bits")
    _require(
        isinstance(cfg["out_dir"], str) and cfg["out_dir"],
        "out_dir", "must be a non-empty string",
    )
    world = world_from_config(cfg["world"])
    wtype = _KINDS[kind].world
    _require(
        wtype is None or cfg["world"]["type"] == wtype,
        "world.type", f"{kind} needs a {wtype} world",
    )
    sampler = cfg["sampler"]
    _check_int(sampler["steps"], "sampler.steps", minimum=1)
    schedule_from_config(sampler["schedule"], "sampler.schedule")
    _require(
        isinstance(sampler["record_trajectory"], bool),
        "sampler.record_trajectory", "must be a boolean",
    )
    if sampler["record_trajectory"]:
        _require(
            kind == "gauss1d",
            "sampler.record_trajectory",
            "trajectory recording is only supported for the single-probe gauss1d kind",
        )
    ev = cfg["eval"]
    _validate_eval(ev)
    defaults = _KINDS[kind].sections
    for swept, (section, key) in _SWEPT_FIELDS.items():
        _require(
            swept not in ev or cfg[section][key] == defaults[section][key],
            f"{section}.{key}", f"is unused when eval.{swept} is swept; set eval.{swept}",
        )
    if kind == "gauss1d":
        _require(
            len(ev["probe_y"]) == world.dim,
            "eval.probe_y", f"must have {world.dim} entries to match the world",
        )
    if "train" in cfg:
        _validate_train(cfg["train"])
    if isinstance(world, MixtureWorld) and (
        "train" not in cfg or ev.get("estimator") == "oracle"
    ):
        # The oracle's posterior has std t * hypot(sigma, eps(t)); eps never
        # rises with t, so a schedule with eps(1) = 0 makes it a point mass.
        seen = ev.get("schedules", [sampler["schedule"]])
        _require(
            world.degradation.sigma > 0.0
            or all(schedule_epsilon(schedule_from_config(sd), 1.0) > 0.0 for sd in seen),
            "world.sigma",
            "must be > 0 for the mixture oracle under a schedule with eps(1) = 0",
        )
    return cfg


# ---- reports ---- #


@dataclass
class RunReport:
    """Everything one experiment produced, ready for emission."""

    kind: str
    config: dict
    columns: list
    rows: list
    trajectory: list = None
    wall_clock_s: float = 0.0
    total_steps: int = 0
    output_paths: list = field(default_factory=list)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path: Path, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c)) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_report(report: RunReport, formats=("csv", "json")) -> list:
    """Write the report under ``report.config['out_dir']``; returns paths.

    CSV holds one header row plus one row per (variant, replicate) cell.
    JSON holds the full nested report: config echo, columns, rows, and a
    meta block with wall-clock seconds and total step counts (kept out of
    the CSV so reruns are byte-identical).  A recorded trajectory goes to
    a sibling ``*_trajectory`` file, one record per step.
    """
    formats = set(formats)
    unknown = formats - {"csv", "json"}
    if unknown:
        raise ConfigError(f"format: unknown format(s) {sorted(unknown)}")
    if not formats:
        raise ConfigError("format: need at least one of csv, json")
    out_dir = Path(report.config["out_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        if "csv" in formats:
            csv_path = out_dir / f"{report.kind}.csv"
            _write_csv(csv_path, report.columns, report.rows)
            paths.append(str(csv_path))
            if report.trajectory is not None:
                traj_path = out_dir / f"{report.kind}_trajectory.csv"
                _write_csv(traj_path, list(report.trajectory[0]), report.trajectory)
                paths.append(str(traj_path))
        if "json" in formats:
            doc = {
                "schema_version": SCHEMA_VERSION,
                "kind": report.kind,
                "config": report.config,
                "columns": list(report.columns),
                "rows": report.rows,
                "meta": {
                    "wall_clock_s": report.wall_clock_s,
                    "total_steps": report.total_steps,
                },
            }
            if report.trajectory is not None:
                doc["trajectory"] = report.trajectory
            json_path = out_dir / f"{report.kind}.json"
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
            paths.append(str(json_path))
    except OSError as err:
        raise OSError(f"cannot write report under {out_dir}: {err}") from err
    report.output_paths = paths
    return paths


# ---- cells (the unit of optional parallelism) ---- #


def _execute_cells(fn, cells, jobs: int):
    if jobs <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
        return list(pool.map(fn, cells))


_METRIC_COLUMNS = [
    "mse", "psnr", "ks", "mode_hit_rate", "mean_min_dist",
    "divergent", "divergence_step",
]


def _metric_fields(res: dict) -> dict:
    return {c: res[c] for c in _METRIC_COLUMNS}


def _sampler_eval_cell(p: dict) -> dict:
    guard = DivergenceGuard(p["estimator"])
    cfg = SamplerConfig(
        steps=p["steps"],
        schedule=p["schedule"],
        seed=p["cell_seed"],
        record_trajectory=p.get("record_trajectory", False),
    )
    out = traj = None
    res = dict.fromkeys(_METRIC_COLUMNS + ["mode_counts", "outputs", "trajectory"])
    res["divergent"] = 0
    try:
        out, traj = _SAMPLER_FNS[p["sampler_name"]](guard, p["y"], cfg)
    except (DivergenceError, NonFiniteIterateError) as err:
        res["divergent"], res["divergence_step"] = 1, int(err.step_index)
        return res
    if p["x_ref"] is not None:
        m = distortion_metrics(p["x_ref"], out, peak=p["peak"])
        res["mse"] = float(m.mse)
        res["psnr"] = float(m.psnr)
    prior = p["prior"]
    if prior is not None:
        idx, dists = nearest_modes(out, prior)
        if p["hit_threshold"] is not None:
            res["mode_hit_rate"] = float(np.mean(dists <= p["hit_threshold"]))
        res["mean_min_dist"] = float(np.mean(dists))
        res["mode_counts"] = np.bincount(idx, minlength=prior.n_modes).tolist()
    ks_ref = p["ks_ref"]
    if ks_ref is not None:
        stats = empirical_distribution_stats(
            np.atleast_2d(out), ref_mean=ks_ref[0], ref_std=ks_ref[1]
        )
        res["ks"] = float(np.max(stats.ks_vs_normal))
    if p.get("return_outputs"):
        res["outputs"] = out
    if traj is not None:
        rows = []
        for i, (t, state) in enumerate(traj):
            row = {"step_index": i, "t": float(t)}
            for j, v in enumerate(np.asarray(state).ravel()):
                row[f"state_{j}"] = float(v)
            rows.append(row)
        res["trajectory"] = rows
    return res


def _train_model(world, seed: int, section: dict, time_dist: TimeDistribution):
    """Train the configured regressor on ``world``; returns (model, losses).

    The one training path: the model is reproducible from the master seed
    through the derivation labels 'model-init', 'train-data' and 'train'.
    """
    model = MlpRegressor.create(
        world.dim, section["hidden"], derive_rng(seed, "model-init"),
        activation=section["activation"],
    )
    stream = world.pair_stream(derive_rng(seed, "train-data"))
    return train(model, stream, _train_config(section, derive_seed(seed, "train"), time_dist))


def _train_eval_cell(p: dict) -> dict:
    model, losses = _train_model(p["world"], p["seed"], p["train"], p["time_dist"])
    if p["checkpoint_path"]:
        save_checkpoint(model, p["checkpoint_path"])
    res = _sampler_eval_cell({**p["eval_cell"], "estimator": model})
    window = max(1, min(100, losses.size))
    res["loss_initial"] = float(np.mean(losses[:window]))
    res["loss_final"] = float(np.mean(losses[-window:]))
    return res


# ---- the runners: (cfg, jobs, write) -> (rows, total steps, trajectory) ---- #


def _row(cfg, variant, **fields) -> dict:
    """One report row: the prefix every kind shares, then ``fields``."""
    return {
        "experiment": cfg["kind"],
        "seed": cfg["seed"],
        "variant": variant,
        "replicate": 0,
        **fields,
    }


def _inputs(cfg):
    """The world and the shared batch of (clean, observed) inputs."""
    world = world_from_config(cfg["world"])
    x, y = world.sample_pairs(derive_rng(cfg["seed"], "inputs"), cfg["eval"]["n_inputs"])
    return world, x, y


def _eval_cell(cfg, world, estimator, schedule, sampler_name, steps, variant, y,
               x_ref=None, **extra) -> dict:
    gaussian = isinstance(world, GaussianWorld)
    return {
        "estimator": estimator,
        "sampler_name": sampler_name,
        "steps": steps,
        "schedule": schedule,
        "cell_seed": derive_seed(cfg["seed"], variant, 0),
        "y": y,
        "x_ref": x_ref,
        "peak": world.signal_peak,
        "prior": None if gaussian else world.prior,
        "hit_threshold": cfg["eval"].get("hit_threshold"),
        "ks_ref": (world.prior.c, world.prior.sigma_c) if gaussian else None,
        **extra,
    }


def _run_grid(cfg, jobs, write):
    """Schedules x samplers x step counts on one shared batch, a cell each.

    ``eval.schedules``, ``eval.samplers`` and ``eval.step_grid`` default to
    ``sampler.schedule``, the iterative sampler and ``sampler.steps``, so
    toy2d is the one-cell grid.  A trained estimator is trained here, once,
    so that its cells still fan out under ``jobs``.
    """
    world, x, y = _inputs(cfg)
    ev = cfg["eval"]
    grid = [int(n) for n in ev.get("step_grid", [cfg["sampler"]["steps"]])]
    estimator_name = ev.get("estimator", "oracle")
    model, train_steps = None, 0
    if estimator_name == "trained":
        time_dist = _time_dist_from_config(cfg["train"]["time_dist"])
        model, _ = _train_model(world, cfg["seed"], cfg["train"], time_dist)
        train_steps = cfg["train"]["steps"]
    cells, rows = [], []
    for sd in ev.get("schedules", [cfg["sampler"]["schedule"]]):
        schedule = schedule_from_config(sd)
        estimator = world.oracle(schedule) if model is None else model
        swept = (
            {"schedule_kind": sd["kind"], "epsilon": sd.get("epsilon")}
            if "schedules" in ev else {}
        )
        for name in ev.get("samplers", ["iterative"]):
            for n in grid:
                variant = len(cells)
                cells.append(_eval_cell(
                    cfg, world, estimator, schedule, name, n, variant, y, x_ref=x,
                ))
                rows.append(_row(
                    cfg, variant, sampler=name, estimator=estimator_name, **swept,
                    N=n, n_inputs=ev["n_inputs"],
                ))
    for row, res in zip(rows, _execute_cells(_sampler_eval_cell, cells, jobs)):
        row.update(_metric_fields(res))
    return rows, train_steps + sum(c["steps"] for c in cells), None


def _run_training(cfg, jobs, write):
    """One regressor trained per time distribution, each restoring the
    shared batch: ``eval.time_dists`` if the kind sweeps them, else the
    single ``train.time_dist``.  Each cell trains, checkpoints and restores.
    """
    world, x, y = _inputs(cfg)
    ev = cfg["eval"]
    tr = cfg["train"]
    steps = cfg["sampler"]["steps"]
    schedule = schedule_from_config(cfg["sampler"]["schedule"])
    if "time_dists" in ev:
        dists = [TimeDistribution(kind, a=float(ev["a"])) for kind in ev["time_dists"]]
        names = [f"checkpoint_{kind}.bin" for kind in ev["time_dists"]]
    else:
        dists = [_time_dist_from_config(tr["time_dist"])]
        names = ["checkpoint.bin"]
    if not write:
        names = [None] * len(dists)
    cells = [
        {
            "world": world,
            "seed": cfg["seed"],
            "train": tr,
            "time_dist": td,
            "checkpoint_path": None if name is None else str(Path(cfg["out_dir"]) / name),
            "eval_cell": _eval_cell(cfg, world, None, schedule, "iterative", steps, i, y,
                                    x_ref=x),
        }
        for i, (td, name) in enumerate(zip(dists, names))
    ]
    results = _execute_cells(_train_eval_cell, cells, jobs)
    rows = [
        _row(
            cfg, i, time_dist=td.kind, atom_a=td.a if td.kind == "linear_a" else None,
            train_steps=tr["steps"], loss_initial=res["loss_initial"],
            loss_final=res["loss_final"], sampler="iterative", estimator="trained",
            N=steps, n_inputs=ev["n_inputs"], **_metric_fields(res), checkpoint=name,
        )
        for i, (td, name, res) in enumerate(zip(dists, names, results))
    ]
    return rows, len(cells) * (tr["steps"] + steps), None


def _run_gauss1d(cfg, jobs, write):
    world = world_from_config(cfg["world"])
    schedule = schedule_from_config(cfg["sampler"]["schedule"])
    steps = cfg["sampler"]["steps"]
    y = np.asarray(cfg["eval"]["probe_y"], dtype=np.float64)
    target = gaussian_flow_trajectory(world.prior, world.sigma_n, y, 0.0)
    cell = _eval_cell(
        cfg, world, world.oracle(schedule), schedule, "iterative", steps, 0, y,
        ks_ref=None,  # a single probe has no output distribution
        record_trajectory=cfg["sampler"]["record_trajectory"], return_outputs=True,
    )
    res = _execute_cells(_sampler_eval_cell, [cell], jobs)[0]
    out = res["outputs"]
    row = _row(cfg, 0, sampler="iterative", estimator="oracle", N=steps)
    for prefix, values in (("y", y), ("output", out), ("limit", target)):
        for j in range(world.dim):
            row[f"{prefix}_{j}"] = None if values is None else float(values[j])
    row["abs_error"] = None if out is None else float(np.max(np.abs(out - target)))
    row["divergent"] = res["divergent"]
    row["divergence_step"] = res["divergence_step"]
    return [row], steps, res["trajectory"]


def _run_generate_from_noise(cfg, jobs, write):
    world, _, y = _inputs(cfg)
    schedule = schedule_from_config(cfg["sampler"]["schedule"])
    steps = cfg["sampler"]["steps"]
    n = cfg["eval"]["n_inputs"]
    cell = _eval_cell(cfg, world, world.oracle(schedule), schedule, "iterative", steps, 0, y)
    res = _execute_cells(_sampler_eval_cell, [cell], jobs)[0]
    counts = res["mode_counts"]
    rows = []
    for mode_index, w in enumerate(world.prior.weights.tolist()):
        freq = None if counts is None else counts[mode_index] / n
        std_err = float(np.sqrt(w * (1.0 - w) / n))
        rows.append(_row(
            cfg, mode_index, sampler="iterative", estimator="oracle", N=steps,
            n_inputs=n, mode_index=mode_index, prior_weight=w, frequency=freq,
            std_err=std_err,
            z_score=None if freq is None or std_err == 0.0 else (freq - w) / std_err,
            mode_hit_rate=res["mode_hit_rate"], divergent=res["divergent"],
        ))
    return rows, steps, None


# ---- the kind table ---- #


@dataclass(frozen=True)
class _Kind:
    sections: dict  # default world/sampler/[train]/eval sections
    world: str | None  # the world type the kind needs; None accepts either
    run: Callable  # the runner


_MIXTURE_A = _mixture_world(_IDENTITY_2D, 1.0)

_KINDS = {
    "toy2d_a": _Kind(
        _sections(_MIXTURE_A, n_inputs=1000, hit_threshold=1e-2), "mixture", _run_grid,
    ),
    "toy2d_b": _Kind(
        _sections(_mixture_world(_PROJECT_FIRST_2D, 0.3), n_inputs=1000, hit_threshold=1e-2),
        "mixture", _run_grid,
    ),
    "gauss1d": _Kind(
        _sections(_GAUSS_WORLD, steps=1000, probe_y=[2.0]), "gaussian", _run_gauss1d,
    ),
    "train_restore": _Kind(
        _sections(
            _MIXTURE_A, train=_train_section([128, 128], 20000, 256, "bias_t0_t1"),
            n_inputs=1000, hit_threshold=5e-2,
        ),
        "mixture", _run_training,
    ),
    "generate_from_noise": _Kind(
        _sections(_mixture_world(_ZERO_2D, 1.0), n_inputs=10000, hit_threshold=1e-2),
        "mixture", _run_generate_from_noise,
    ),
    "sweep_steps": _Kind(
        _sections(_GAUSS_WORLD, n_inputs=2000, step_grid=[1, 2, 4, 10, 50, 100]),
        None, _run_grid,
    ),
    "sweep_pt": _Kind(
        _sections(
            _MIXTURE_A, train=_train_section([64, 64], 6000, 128, "linear_0"),
            n_inputs=1000, time_dists=list(TIME_DISTRIBUTION_KINDS), a=1.0,
            hit_threshold=5e-2,
        ),
        "mixture", _run_training,
    ),
    "sweep_noise": _Kind(
        _sections(
            _MIXTURE_A, n_inputs=1000, hit_threshold=1e-2,
            schedules=[
                {"kind": "constant", "epsilon": 0.0},
                {"kind": "constant", "epsilon": 0.05},
                {"kind": "constant", "epsilon": 0.1},
                {"kind": "brownian", "epsilon": 0.05},
                {"kind": "brownian", "epsilon": 0.1},
            ],
        ),
        "mixture", _run_grid,
    ),
    # 3000 training steps leave the regressor slightly rough on purpose: the
    # sampler ordering under study only separates once estimator error is
    # non-negligible, and longer training washes it out.
    "sampler_compare": _Kind(
        _sections(
            _MIXTURE_A, train=_train_section([64, 64], 3000, 128, "bias_t0_t1"),
            n_inputs=500, step_grid=[1, 2, 3, 10, 100, 1000],
            samplers=list(SAMPLER_NAMES), estimator="trained", hit_threshold=1e-2,
        ),
        "mixture", _run_grid,
    ),
}

EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(config: dict, jobs: int = 1, write: bool = True,
                   formats=("csv", "json")) -> RunReport:
    """Resolve ``config``, run its experiment, and (unless ``write`` is
    False) emit the report files into the configured output directory.

    Deterministic given the config and seed; wall-clock timing lives only
    in the JSON meta block.
    """
    cfg = resolve_config(config)
    if not isinstance(jobs, int) or jobs < 1:
        raise ConfigError("jobs: must be an integer >= 1")
    if write:
        Path(cfg["out_dir"]).mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    rows, total_steps, trajectory = _KINDS[cfg["kind"]].run(cfg, jobs, write)
    report = RunReport(
        kind=cfg["kind"],
        config=cfg,
        columns=list(rows[0]),
        rows=rows,
        trajectory=trajectory,
        wall_clock_s=time.perf_counter() - start,
        total_steps=int(total_steps),
    )
    if write:
        emit_report(report, formats=formats)
    return report
