"""Experiment harness: validated configs, named experiments, reports.

An experiment is described by a JSON-compatible dict (see
:func:`default_config` for the schema and per-kind defaults) and executed
by :func:`run_experiment`, which produces a :class:`RunReport` and, by
default, writes it to the configured output directory via
:func:`emit_report` as CSV (rows only) and JSON (config echo, rows, and
timing metadata).  Numeric cells are written with 17 significant digits so
both formats round-trip bit-exactly through decimal; CSV output carries no
timing, so identical configs and seeds yield byte-identical CSV files.

Each config field is checked by its row of one table, ``_SCHEMA``, and
``resolve_config`` then applies the few rules that tie fields together.
Those rules ask which fields a config has, never which kind it is: a
field the run never reads (a swept one, ``train.*`` under the oracle,
``train.time_dist.a`` outside ``linear_a``, ``sampler.record_trajectory``
without ``eval.probe_y``) must keep its default.  None ties ``world.sigma``
to the estimator: at sigma 0 the mixture oracle takes its point-mass limit.

Experiment kinds are defined once, in ``_KINDS``: a kind is its default
config sections and its row format.  The world type a kind needs follows
from its eval fields (``eval.hit_threshold`` needs a mixture world,
``eval.probe_y`` a Gaussian one); the README's kinds table says what each
measures.

A cell is one sampler run, ``(sampler name, estimator, y, SamplerConfig,
guard floor)``, with random sources derived from (master seed, variant
index, replicate index) by the rule documented at
:func:`restep.worlds.derive_rng`.
:func:`run_experiment` runs the phases of every kind in one order: the
world and its inputs (``_inputs``), the oracle or the trained models
(``_models``), the cells (``_grid``), the kind's rows, the report
(:func:`emit_report`).  With ``jobs > 1`` both the models and the cells
run in a process pool, and the report is assembled in deterministic grid
order either way.  A run that goes numerically wrong (an iterate whose
largest absolute entry is beyond 1e6 times the largest of its start's,
its first estimate's and the world's own scale, or a non-finite iterate,
estimate or training loss) raises :class:`restep.worlds.DivergenceError`;
the rows of the cells it hits are flagged and the rest continue.  Any other
exception a cell raises ends the run, and it is the same exception, of the
same type and message, at every ``jobs``.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .degradation import (
    BrownianSchedule,
    ConstantSchedule,
    TableSchedule,
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

_SAMPLER_FNS = {
    "iterative": iterative_restore,
    "naive": naive_restore,
    "cold_diffusion": cold_diffusion_restore,
}
SAMPLER_NAMES = tuple(_SAMPLER_FNS)

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
    _require(kind in EXPERIMENT_KINDS, "kind", f"must be one of {EXPERIMENT_KINDS}, got {kind!r}")
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
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError(f"config: {path} is not valid JSON: {err}") from err
    _require(isinstance(raw, dict), "config", "top level must be a JSON object")
    return raw


# Sections whose sub-keys merge individually; everything else (including
# world/schedule/time_dist variants) is replaced wholesale.
_MERGE_SECTIONS = ("sampler", "eval", "train")


def _merge(out: dict, override: dict) -> dict:  # out: a fresh defaults copy, merged in place
    for key, val in override.items():
        _require(key in out, key, "unknown config field")
        if key in _MERGE_SECTIONS:
            _require(isinstance(val, dict), key, "must be a mapping")
            section = out[key]
            for sub, subval in val.items():
                _require(sub in section, f"{key}.{sub}", "unknown config field")
                section[sub] = copy.deepcopy(subval)
        else:
            out[key] = copy.deepcopy(val)
    return out


# ---- the config schema: a check is check(value, path) -> None ---- #

_FLOAT_MAX = sys.float_info.max


def _num(lo=-_FLOAT_MAX, hi=_FLOAT_MAX, positive=False, integer=False):
    """A finite number (an integer if ``integer``; never a bool) in [lo, hi],
    and > 0 if ``positive``; ``.bounds`` keeps the range."""
    types = (int, np.integer) if integer else (int, float, np.integer, np.floating)

    def check(value, path):
        _require(
            isinstance(value, types) and not isinstance(value, bool)
            and -_FLOAT_MAX <= value <= _FLOAT_MAX,
            path, f"must be {'an integer' if integer else 'a finite number'}, got {value!r}",
        )
        _require(value > 0 or not positive, path, "must be > 0")
        _require(lo <= value <= hi, path, f"must be >= {lo}" if value < lo else f"must be <= {hi}")
    check.bounds = (max(lo, 0.0) if positive else lo, hi)
    return check


def _int(lo, hi=_FLOAT_MAX):
    return _num(lo, hi, integer=True)


def _choice(*options):
    """One of ``options`` (kept as ``.options``), of the same type, so true
    is not 1, nor is 1.0."""
    def check(value, path):
        _require(
            any(type(value) is type(o) and value == o for o in options),
            path, f"must be one of {options}, got {value!r}",
        )
    check.options = options
    return check


def _list_of(item):
    """A non-empty list whose entries pass ``item`` (kept as ``.item``)."""
    def check(value, path):
        _require(isinstance(value, (list, tuple)) and value, path, "must be a non-empty list")
        for j, v in enumerate(value):
            item(v, f"{path}[{j}]")
    check.item = item
    return check


def _text(value, path):
    _require(isinstance(value, str) and value, path, "must be a non-empty string")


# The tagged mappings: tag value -> field -> check.
_SCHEDULES = {
    "constant": {"epsilon": _num(0.0)},
    "brownian": {"epsilon": _num(0.0)},
    "table": {"times": _list_of(_num(0.0, 1.0)), "epsilons": _list_of(_num(0.0))},
}
_WORLDS = {
    "mixture": {
        "modes": _list_of(_list_of(_num())),
        "weights": _list_of(_num(0.0)),
        "H": _list_of(_list_of(_num())),
        "sigma": _num(0.0),
    },
    "gaussian": {"c": _list_of(_num()), "sigma_c": _num(positive=True),
                 "sigma_n": _num(positive=True)},
}
_TIME_DISTS = {kind: {"a": _num(0.0)} for kind in TIME_DISTRIBUTION_KINDS}


def _tagged(d, path: str, tag: str, variants: dict, build):
    """Check ``d`` against the variant its ``tag`` names; return ``build(tag
    value, d)``, whose ValueErrors (shapes, orderings) are ConfigErrors."""
    _require(isinstance(d, dict), path, "must be a mapping")
    name = d.get(tag)
    _require(
        isinstance(name, str) and name in variants,
        f"{path}.{tag}", f"must be one of {tuple(variants)}, got {name!r}",
    )
    fields = variants[name]
    for key in d:
        _require(key == tag or key in fields, f"{path}.{key}", "unknown config field")
    for key, check in fields.items():
        _require(key in d, path, f"missing field {key!r}")
        check(d[key], f"{path}.{key}")
    try:
        return build(name, d)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _build_schedule(kind, d):
    if kind == "table":
        return TableSchedule(d["times"], d["epsilons"])
    return (ConstantSchedule if kind == "constant" else BrownianSchedule)(d["epsilon"])


def schedule_from_config(d, path: str = "schedule"):
    return _tagged(d, path, "kind", _SCHEDULES, _build_schedule)


def _build_world(wtype, d):
    if wtype == "mixture":
        prior = GaussianMixturePrior(d["modes"], d["weights"])
        return MixtureWorld(prior, LinearDegradation(d["H"], d["sigma"]))
    return GaussianWorld(GaussianPrior(d["c"], d["sigma_c"]), d["sigma_n"])


def world_from_config(d, path: str = "world"):
    return _tagged(d, path, "type", _WORLDS, _build_world)


def _time_dist_from_config(d, path: str = "train.time_dist"):
    if isinstance(d, dict):
        d = {"a": 0.0, **d}  # ``a`` may be left out
    return _tagged(
        d, path, "kind", _TIME_DISTS, lambda kind, d: TimeDistribution(kind, d["a"]),
    )


# Every field of a resolved config (except ``kind``, which chose the
# defaults) has exactly one row; a field without one is a KeyError.
_SCHEMA = {
    "schema_version": _choice(SCHEMA_VERSION),
    "seed": _int(0, 2**64 - 1),
    "out_dir": _text,
    "world": world_from_config,
    "sampler.steps": _int(1),
    "sampler.schedule": schedule_from_config,
    "sampler.record_trajectory": _choice(True, False),
    "train.hidden": _list_of(_int(1)),
    "train.activation": _choice("tanh", "relu"),
    "train.p_norm": _choice(1, 2),
    "train.learning_rate": _num(positive=True),
    "train.batch_size": _int(1),
    "train.steps": _int(1),
    "train.time_dist": _time_dist_from_config,
    "train.schedule": schedule_from_config,
    "eval.n_inputs": _int(1),
    "eval.hit_threshold": _num(positive=True),
    "eval.step_grid": _list_of(_int(1)),
    "eval.samplers": _list_of(_choice(*SAMPLER_NAMES)),
    "eval.estimator": _choice("oracle", "trained"),
    "eval.time_dists": _list_of(_choice(*TIME_DISTRIBUTION_KINDS)),
    "eval.a": _num(0.0),
    "eval.schedules": _list_of(schedule_from_config),
    "eval.probe_y": _list_of(_num()),
}

# An eval list a kind sweeps replaces the one field its cells would
# otherwise read.
_SWEPT_FIELDS = {
    "schedules": ("sampler", "schedule"),
    "step_grid": ("sampler", "steps"),
    "time_dists": ("train", "time_dist"),
}


def _estimator(cfg) -> str:
    """What restores the run's cells: "oracle" (the world's) or "trained"."""
    return cfg["eval"].get("estimator", "trained" if "train" in cfg else "oracle")


def resolve_config(raw: dict) -> dict:
    """Merge ``raw`` over its kind's defaults and validate everything.

    Returns the fully resolved dict that the run consumes and the
    report echoes.  Each field is checked by its ``_SCHEMA`` row, then the
    rules that tie fields together.  Unknown fields, missing fields, and
    out-of-range values raise :class:`ConfigError` with the offending
    field path.  ``world.sigma`` 0 is accepted under every estimator.
    """
    _require(isinstance(raw, dict), "config", "must be a mapping")
    kind = raw.get("kind")
    cfg = _merge(default_config(kind), raw)
    for key, value in cfg.items():
        if key in _MERGE_SECTIONS:
            for sub, subval in value.items():
                _SCHEMA[f"{key}.{sub}"](subval, f"{key}.{sub}")
        elif key != "kind":
            _SCHEMA[key](value, key)
    world, ev = cfg["world"], cfg["eval"]
    # Hit rates need a mixture's modes, a flow limit the Gaussian closed form.
    for key, wtype in (("hit_threshold", "mixture"), ("probe_y", "gaussian")):
        _require(key not in ev or world["type"] == wtype, "world.type",
                 f"eval.{key} needs a {wtype} world")
    # A field the run never reads must keep its default: a changed value
    # there would be silently ignored.
    unread = {
        f"{section}.{key}": f"eval.{swept} is swept; set eval.{swept}"
        for swept, (section, key) in _SWEPT_FIELDS.items() if swept in ev
    }
    if "train" in cfg and _estimator(cfg) == "oracle":
        unread.update((f"train.{key}", "eval.estimator is oracle") for key in cfg["train"])
    if "a" in ev and "linear_a" not in ev["time_dists"]:
        unread["eval.a"] = "eval.time_dists has no linear_a"
    if "probe_y" not in ev:
        unread["sampler.record_trajectory"] = "the kind restores no single probe"
    defaults = _KINDS[kind].sections
    for path, when in unread.items():
        section, key = path.split(".")
        _require(cfg[section][key] == defaults[section][key], path, f"is unused when {when}")
    dist = cfg["train"]["time_dist"] if "train" in cfg else {"kind": "linear_a"}
    _require(dist["kind"] == "linear_a" or dist.get("a", 0.0) == 0.0, "train.time_dist.a",
             "is unused when train.time_dist.kind is not linear_a")
    dists = ev.get("time_dists", [])  # each entry trains one checkpoint_<kind>.bin
    for j, first in enumerate(dists.index(name) for name in dists):
        _require(first == j, f"eval.time_dists[{j}]", f"repeats eval.time_dists[{first}]")
    if "probe_y" in ev:
        _require(
            len(ev["probe_y"]) == len(world["c"]),
            "eval.probe_y", f"must have {len(world['c'])} entries to match the world",
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
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path: Path, columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c)) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _check_formats(formats) -> set:
    out = set(formats)
    _require(out and out <= {"csv", "json"}, "format", f"must be csv and/or json, got {formats!r}")
    return out


def emit_report(report: RunReport, formats=("csv", "json")) -> list:
    """Write the report under ``report.config['out_dir']``; returns paths.

    CSV holds one header row plus one row per (variant, replicate) cell.
    JSON holds the full nested report: config echo, columns, rows, and a
    meta block with wall-clock seconds and total step counts (kept out of
    the CSV so reruns are byte-identical).  A recorded trajectory goes to
    a sibling ``*_trajectory`` file, one record per step.
    """
    formats = _check_formats(formats)
    out_dir = Path(report.config["out_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        if "csv" in formats:
            paths.append(_write_csv(out_dir / f"{report.kind}.csv", report.columns, report.rows))
            if report.trajectory is not None:
                traj_path = out_dir / f"{report.kind}_trajectory.csv"
                paths.append(_write_csv(traj_path, list(report.trajectory[0]), report.trajectory))
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
    from concurrent.futures import ProcessPoolExecutor  # jobs = 1 runs never load the pool

    with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
        return list(pool.map(fn, cells))


def _restore_cell(cell):
    """Run one ``(sampler name, estimator, y, SamplerConfig, guard floor, record)``
    cell under a divergence guard: (output, trajectory), or the run's DivergenceError.
    A recorded trajectory is each estimator call's (t, state), one a step, and (0.0, output)."""
    name, estimator, y, config, floor, record = cell
    if isinstance(estimator, DivergenceError):  # its model's training diverged
        return estimator
    guard = DivergenceGuard(estimator, floor)
    seen = []
    watched = (lambda x_t, t: seen.append((t, x_t.copy())) or guard(x_t, t)) if record else guard
    try:
        output = _SAMPLER_FNS[name](watched, y, config)
        guard.check(output, 0.0)  # the output feeds no estimator call
    except DivergenceError as err:
        return err
    return output, [*seen, (0.0, output)] if record else None


def _metrics(cfg, world, x, result, nearest=None) -> dict:
    """Every metric column of a cell's ``result``: mse/psnr against a clean
    batch ``x``, mode distances and hit rate in a mixture world, KS against
    a Gaussian prior.  A divergence leaves them (in training, the step too) empty.
    ``nearest`` is ``nearest_modes`` of the output if the caller has it already."""
    row = dict.fromkeys(["mse", "psnr", "ks", "mode_hit_rate", "mean_min_dist",
                         "divergent", "divergence_step"])
    row["divergent"] = int(isinstance(result, DivergenceError))
    if row["divergent"]:
        row["divergence_step"] = None if result.t is None else int(result.step_index)
        return row
    out = np.atleast_2d(result[0])
    if x is not None:  # an overflowed signal peak leaves psnr empty
        peak = world.signal_peak
        row["mse"], psnr = distortion_metrics(x, out, peak=peak if np.isfinite(peak) else 1.0)
        row["psnr"] = psnr if np.isfinite(peak) else None
    if isinstance(world, MixtureWorld):
        _, dists = nearest_modes(out, world.prior) if nearest is None else nearest
        if "hit_threshold" in cfg["eval"]:
            row["mode_hit_rate"] = float(np.mean(dists <= cfg["eval"]["hit_threshold"]))
        row["mean_min_dist"] = float(np.mean(dists))
    elif len(out) >= 2:  # one row has no distribution
        ks = empirical_distribution_stats(out, world.prior.c, world.prior.sigma_c)
        row["ks"] = float(np.max(ks))
    return row


def _train_model(cell):
    """Train on one ``(world, seed, train section, TimeDistribution,
    checkpoint path or None)`` cell and write the checkpoint if given a path:
    (model, mean loss of the first and of the last 100 steps), or (the
    DivergenceError, None, None) with no checkpoint.

    The one training path: the model is reproducible from the master seed
    through the derivation labels 'model-init', 'train-data' and 'train'.
    """
    world, seed, section, time_dist, checkpoint_path = cell
    model = MlpRegressor.create(
        world.dim, section["hidden"], derive_rng(seed, "model-init"),
        activation=section["activation"],
    )
    config = TrainConfig(
        p_norm=section["p_norm"],
        learning_rate=section["learning_rate"],
        batch_size=section["batch_size"],
        steps=section["steps"],
        time_dist=time_dist,
        schedule=schedule_from_config(section["schedule"], "train.schedule"),
        seed=derive_seed(seed, "train"),
    )
    try:
        model, losses = train(model, world.pair_stream(derive_rng(seed, "train-data")), config)
    except DivergenceError as err:
        return err, None, None
    if checkpoint_path:
        save_checkpoint(model, checkpoint_path)
    window = max(1, min(100, losses.size))
    return model, float(np.mean(losses[:window])), float(np.mean(losses[-window:]))


# ---- the phases of a run, in the order run_experiment calls them ---- #

# Inputs, models, cells, then a kind's rows: a row format only formats the
# cells' results.  ``_cell_rows`` writes a row per cell; gauss1d (a probe and
# its flow limit) and generate_from_noise (a row per mode) run one cell.


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
    """(world, x, y): the ``eval.probe_y`` probe and no x, else ``eval.n_inputs`` pairs."""
    world = world_from_config(cfg["world"])
    if "probe_y" in cfg["eval"]:
        return world, None, np.asarray(cfg["eval"]["probe_y"], dtype=np.float64)
    x, y = world.sample_pairs(derive_rng(cfg["seed"], "inputs"), cfg["eval"]["n_inputs"])
    return world, x, y


def _models(cfg, world, jobs, write):
    """The estimators as (model, head, tail): None for the oracle, else one
    trained per ``eval.time_dists`` entry or the ``train.time_dist`` one, under ``jobs``.

    A training kind (a ``train`` section and no ``eval.estimator``) writes
    the checkpoints, and its rows put the model's time distribution and
    losses (``head``) before the grid's columns and the checkpoint
    (``tail``) after the metrics; other kinds' head and tail are empty.
    """
    if _estimator(cfg) == "oracle":
        return [(None, {}, {})]
    ev, tr = cfg["eval"], cfg["train"]
    if "time_dists" in ev:
        dists = [TimeDistribution(kind, ev["a"]) for kind in ev["time_dists"]]
        names = [f"checkpoint_{kind}.bin" for kind in ev["time_dists"]]
    else:
        dists, names = [_time_dist_from_config(tr["time_dist"])], ["checkpoint.bin"]
    own = "estimator" not in ev
    if not (own and write):
        names = [None] * len(dists)
    trained = _execute_cells(_train_model, [
        (world, cfg["seed"], tr, td, None if name is None else str(Path(cfg["out_dir"]) / name))
        for td, name in zip(dists, names)
    ], jobs)
    if not own:
        return [(model, {}, {}) for model, _, _ in trained]
    return [
        (model,
         {"time_dist": td.kind, "atom_a": td.a if td.kind == "linear_a" else None,
          "train_steps": tr["steps"], "loss_initial": first, "loss_final": last},
         {"checkpoint": None if first is None else name})
        for td, name, (model, first, last) in zip(dists, names, trained)
    ]


def _grid(cfg, world, y, models, jobs):
    """Models x schedules x samplers x step counts on the one input ``y``, a
    restore cell each, run under ``jobs``: (head, grid columns, tail) per
    cell, the results, and the run's planned steps, a diverged model's too.

    The eval lists default to ``sampler.schedule``, the iterative sampler
    and ``sampler.steps``, so a kind that sweeps none of them is one cell.
    A model of None is the world's oracle; a diverged one gives its cells its error.
    Each guard's baseline is floored at the world's own scale (the largest |mode|
    entry, or |c| and sigma_c), which a run may reach from any start.
    """
    ev, record = cfg["eval"], cfg["sampler"]["record_trajectory"]
    cells, labels = [], []
    scale = (float(np.abs(world.prior.modes).max()) if isinstance(world, MixtureWorld)
             else max(float(np.abs(world.prior.c).max()), world.prior.sigma_c))
    for model, head, tail in models:
        for sd in ev.get("schedules", [cfg["sampler"]["schedule"]]):
            schedule = schedule_from_config(sd)
            estimator = world.oracle(schedule) if model is None else model
            swept = (
                {"schedule_kind": sd["kind"], "epsilon": sd.get("epsilon")}
                if "schedules" in ev else {}
            )
            for name in ev.get("samplers", ["iterative"]):
                for n in ev.get("step_grid", [cfg["sampler"]["steps"]]):
                    seed = derive_seed(cfg["seed"], len(cells), 0)
                    config = SamplerConfig(n, schedule, seed)
                    cells.append((name, estimator, y, config, scale, record))
                    columns = {"sampler": name, "estimator": _estimator(cfg), **swept, "N": n}
                    labels.append((head, columns, tail))
    train_steps = sum(cfg["train"]["steps"] for model, _, _ in models if model is not None)
    results = _execute_cells(_restore_cell, cells, jobs)
    return labels, results, train_steps + sum(config.steps for *_, config, _, _ in cells)


def _cell_rows(cfg, world, x, y, cells, results):
    """A row per cell of the grid on one shared batch, scored by :func:`_metrics`."""
    return [
        _row(cfg, variant, **head, **columns, n_inputs=cfg["eval"]["n_inputs"],
             **_metrics(cfg, world, x, result), **tail)
        for variant, ((head, columns, tail), result) in enumerate(zip(cells, results))
    ]


def _gauss1d_rows(cfg, world, x, y, cells, results):
    [(_, columns, _)], [result] = cells, results
    target = gaussian_flow_trajectory(world, y, 0.0)
    metrics = _metrics(cfg, world, x, result)
    out = None if metrics["divergent"] else result[0]
    row = _row(cfg, 0, **columns)
    for prefix, values in (("y", y), ("output", out), ("limit", target)):
        for j in range(world.dim):
            row[f"{prefix}_{j}"] = None if values is None else float(values[j])
    row["abs_error"] = None if out is None else float(np.max(np.abs(out - target)))
    row["divergent"] = metrics["divergent"]
    row["divergence_step"] = metrics["divergence_step"]
    return [row]


def _generate_from_noise_rows(cfg, world, x, y, cells, results):
    n = cfg["eval"]["n_inputs"]
    [(_, columns, _)], [result] = cells, results
    nearest, counts = None, None
    if not isinstance(result, DivergenceError):
        nearest = nearest_modes(result[0], world.prior)
        counts = np.bincount(nearest[0], minlength=world.prior.n_modes).tolist()
    metrics = _metrics(cfg, world, None, result, nearest)
    rows = []
    for mode_index, w in enumerate(world.prior.weights.tolist()):
        freq = None if counts is None else counts[mode_index] / n
        std_err = float(np.sqrt(w * (1.0 - w) / n))
        rows.append(_row(
            cfg, mode_index, **columns,
            n_inputs=n, mode_index=mode_index, prior_weight=w, frequency=freq,
            std_err=std_err,
            z_score=None if freq is None or std_err == 0.0 else (freq - w) / std_err,
            mode_hit_rate=metrics["mode_hit_rate"], divergent=metrics["divergent"],
        ))
    return rows


# ---- the kind table ---- #


@dataclass(frozen=True)
class _Kind:
    sections: dict  # default world/sampler/[train]/eval sections
    rows: Callable  # (cfg, world, x, y, cells, results) -> the report's rows


_MIXTURE_A = _mixture_world(_IDENTITY_2D, 1.0)

_KINDS = {
    "toy2d_a": _Kind(_sections(_MIXTURE_A, n_inputs=1000, hit_threshold=1e-2), _cell_rows),
    "toy2d_b": _Kind(
        _sections(_mixture_world(_PROJECT_FIRST_2D, 0.3), n_inputs=1000, hit_threshold=1e-2),
        _cell_rows,
    ),
    "gauss1d": _Kind(_sections(_GAUSS_WORLD, steps=1000, probe_y=[2.0]), _gauss1d_rows),
    "train_restore": _Kind(
        _sections(
            _MIXTURE_A, train=_train_section([128, 128], 20000, 256, "bias_t0_t1"),
            n_inputs=1000, hit_threshold=5e-2,
        ),
        _cell_rows,
    ),
    "generate_from_noise": _Kind(
        _sections(_mixture_world(_ZERO_2D, 1.0), n_inputs=10000, hit_threshold=1e-2),
        _generate_from_noise_rows,
    ),
    "sweep_steps": _Kind(
        _sections(_GAUSS_WORLD, n_inputs=2000, step_grid=[1, 2, 4, 10, 50, 100]), _cell_rows,
    ),
    "sweep_pt": _Kind(
        _sections(
            _MIXTURE_A, train=_train_section([64, 64], 6000, 128, "linear_0"),
            n_inputs=1000, time_dists=list(TIME_DISTRIBUTION_KINDS), a=1.0,
            hit_threshold=5e-2,
        ),
        _cell_rows,
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
        _cell_rows,
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
        _cell_rows,
    ),
}

EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(config: dict, jobs: int = 1, write: bool = True,
                   formats=("csv", "json")) -> RunReport:
    """Resolve ``config``, run its experiment, and (unless ``write`` is
    False) emit the report files into the configured output directory.

    The phases run in order: the world and its inputs, the models, the
    cells, the kind's rows, the report.  Deterministic given the config and
    seed; wall-clock timing lives only in the JSON meta block.
    """
    _int(1)(jobs, "jobs")
    _check_formats(formats)
    cfg = resolve_config(config)
    if write:
        Path(cfg["out_dir"]).mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    world, x, y = _inputs(cfg)
    models = _models(cfg, world, jobs, write)
    cells, results, total_steps = _grid(cfg, world, y, models, jobs)
    rows = _KINDS[cfg["kind"]].rows(cfg, world, x, y, cells, results)
    recorded = None if isinstance(results[0], DivergenceError) else results[0][1]
    report = RunReport(
        kind=cfg["kind"],
        config=cfg,
        columns=list(rows[0]),
        rows=rows,
        trajectory=None if recorded is None else [
            {"step_index": i, "t": float(t),
             **{f"state_{j}": float(v) for j, v in enumerate(np.asarray(state).ravel())}}
            for i, (t, state) in enumerate(recorded)
        ],
        wall_clock_s=time.perf_counter() - start,
        total_steps=int(total_steps),
    )
    if write:
        emit_report(report, formats=formats)
    return report
