import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from restep import harness
from restep.cli import main as cli_main
from restep.degradation import ConstantSchedule
from restep.harness import (
    EXPERIMENT_KINDS,
    ConfigError,
    _execute_cells,
    default_config,
    emit_report,
    load_config,
    resolve_config,
    run_experiment,
)
from restep.metrics import nearest_modes
from restep.regressor import TIME_DISTRIBUTION_KINDS, load_checkpoint, train
from restep.samplers import SamplerConfig
from restep.worlds import DivergenceError

TINY_TRAIN = {"hidden": [8], "steps": 40, "batch_size": 16,
              "learning_rate": 5e-3}


def tiny_config(kind, out_dir=None, **eval_over):
    cfg = {"kind": kind, "seed": 5}
    if out_dir is not None:
        cfg["out_dir"] = str(out_dir)
    if kind in ("toy2d_a", "toy2d_b", "sweep_noise"):
        cfg["eval"] = {"n_inputs": 60}
        cfg["sampler"] = {"steps": 6}
    elif kind == "gauss1d":
        cfg["sampler"] = {"steps": 12}
    elif kind == "generate_from_noise":
        cfg["eval"] = {"n_inputs": 150}
        cfg["sampler"] = {"steps": 8}
    elif kind == "sweep_steps":
        cfg["eval"] = {"n_inputs": 80, "step_grid": [1, 3, 9]}
    elif kind == "sampler_compare":
        cfg["eval"] = {"n_inputs": 40, "step_grid": [1, 4],
                       "estimator": "oracle"}
    elif kind in ("sweep_pt", "train_restore"):
        cfg["train"] = dict(TINY_TRAIN)
        cfg["eval"] = {"n_inputs": 40}
        cfg["sampler"] = {"steps": 5}
        if kind == "sweep_pt":
            cfg["eval"]["time_dists"] = ["linear_0", "bias_t1"]
    for key, val in eval_over.items():
        cfg.setdefault("eval", {})[key] = val
    return cfg


def diverging_training_config(kind, out_dir):
    """``kind``'s small config, training its network at learning rate 1e300
    under p_norm 2, whose loss goes non-finite at the second step."""
    cfg = tiny_config(kind, out_dir=out_dir)
    if kind == "sampler_compare":
        cfg["eval"]["estimator"] = "trained"
    cfg["train"] = {**TINY_TRAIN, "learning_rate": 1e300, "p_norm": 2}
    return cfg


def _fail_at_cell_one(cell):
    if cell == 1:
        raise ZeroDivisionError("cell 1 failed")
    return cell


def _knot_rows(rows):
    assert [r["divergent"] for r in rows] == [0]


def _psnr_underflow_rows(rows):
    """peak = 2 sigma_c = 1e-323, whose square is 0: the N = 3 row's psnr is
    20 log10(peak) - 10 log10(mse)."""
    assert [r["divergent"] for r in rows] == [0, 0, 0]
    assert rows[1]["mse"] > 0.0
    assert rows[1]["psnr"] == 20.0 * math.log10(1e-323) - 10.0 * math.log10(rows[1]["mse"])


def _peak_overflow_rows(rows):
    assert rows and all(r["psnr"] is None and r["mse"] is not None for r in rows)


def _unflagged_rows(rows):
    assert rows and [r["divergent"] for r in rows] == [0] * len(rows)


def _exact_rows(rows):
    """No row flagged, and every output equal to its clean draw."""
    assert [(r["divergent"], r["mse"]) for r in rows] == [(0, 0.0)] * len(rows)


def _limit_rows(limit):
    def check(rows):
        [row] = rows
        assert row["limit_0"] == pytest.approx(limit, rel=1e-15) and row["divergent"] == 0
        assert row["abs_error"] < 1e-2 * abs(limit)  # first order in 1 / N, N = 1000
    return check


def _start_flagged_rows(rows):
    assert [(r["divergent"], r["divergence_step"]) for r in rows] == [(1, 0)]


def _even_mode_rows(rows):
    """No row flagged, and each mode's frequency within 4 standard errors of 1/4."""
    assert [r["divergent"] for r in rows] == [0, 0, 0, 0]
    assert all(abs(r["frequency"] - 0.25) <= 4 * r["std_err"] for r in rows)


_MAX = 1.7976931348623157e308
_MIXTURE_WORLD = {"type": "mixture", "modes": [[1.0, 0.0], [-1.0, 0.0]], "weights": [0.5, 0.5],
                  "H": [[1.0, 0.0], [0.0, 1.0]], "sigma": 1.0}
_SLOPE_TABLE = {"kind": "table", "times": [0.0, 0.5, 1.0], "epsilons": [_MAX, 1.0, 1.0]}
_EXTREME = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # extreme values overflow
# (config, the row check it runs to or the path its ConfigError names)
_FAULT_CONFIGS = [
    ({"kind": "toy2d_a", "eval": {"n_inputs": 20},
      "sampler": {"steps": 10, "schedule": {
          "kind": "table", "times": [0.0, 0.9000000000000001, 1.0],
          "epsilons": [4.425398044605137, 0.09412864224039919, 0.09412864224039919]}}},
     _knot_rows),
    pytest.param(
        {"kind": "sweep_steps", "seed": 5, "eval": {"n_inputs": 80, "step_grid": [1, 3, 9]},
         "sampler": {"schedule": {"kind": "brownian", "epsilon": 1.0}},
         "world": {"type": "gaussian", "c": [-3.0], "sigma_c": 5e-324, "sigma_n": 1e-300}},
        _psnr_underflow_rows, marks=_EXTREME),
    ({"kind": "toy2d_a", "eval": {"n_inputs": 20}, "sampler": {"steps": 4},
      "world": {**_MIXTURE_WORLD, "modes": [[1e308, 0.0], [-1e308, 0.0]]}},
     _peak_overflow_rows),
    ({"kind": "toy2d_a", "eval": {"n_inputs": 20},
      "sampler": {"steps": 6, "schedule": _SLOPE_TABLE}}, "sampler.schedule"),
    ({"kind": "sweep_steps", "eval": {"n_inputs": 20, "step_grid": [4]},
      "sampler": {"schedule": {**_SLOPE_TABLE, "epsilons": [_MAX, _MAX, 0.0]}}},
     "sampler.schedule"),
    ({"kind": "sweep_noise", "eval": {"n_inputs": 20, "schedules": [
        {"kind": "constant", "epsilon": 0.0}, _SLOPE_TABLE]}}, "eval.schedules[1]"),
    ({"kind": "generate_from_noise", "seed": 1, "eval": {"n_inputs": 200},
      "world": {**default_config("generate_from_noise")["world"], "sigma": 1e-7}},
     _even_mode_rows),
    ({"kind": "generate_from_noise", "seed": 1, "eval": {"n_inputs": 2000},
      "world": {"type": "mixture", "weights": [0.25] * 4, "H": [[0.0, 0.0], [0.0, 0.0]],
                "modes": [[1e-200, 1e-200], [1e-200, -1e-200], [-1e-200, 1e-200],
                          [-1e-200, -1e-200]], "sigma": 1e-200}},
     _even_mode_rows),
    ({"kind": "train_restore", "seed": 1, "eval": {"n_inputs": 200}, "train": TINY_TRAIN,
      "world": {**default_config("generate_from_noise")["world"], "sigma": 1e-7}},
     _unflagged_rows),
    ({"kind": "sweep_steps", "eval": {"n_inputs": 50, "step_grid": [1, 3, 20]},
      "world": {"type": "gaussian", "c": [0.0], "sigma_c": 1e150, "sigma_n": 1.0}},
     _unflagged_rows),
    ({"kind": "sweep_steps", "eval": {"n_inputs": 50, "step_grid": [1, 3]},
      "world": {"type": "gaussian", "c": [1e308], "sigma_c": 1.0, "sigma_n": 1.0}},
     _exact_rows),
    ({"kind": "gauss1d", "eval": {"probe_y": [-1e308]},
      "world": {"type": "gaussian", "c": [1e308], "sigma_c": 1.0, "sigma_n": 1.0}},
     _limit_rows(-4.142135623730951e307)),
    ({"kind": "gauss1d", "eval": {"probe_y": [-1.7e308]},
      "world": {"type": "gaussian", "c": [1.7e308], "sigma_c": 1e-300, "sigma_n": 1e308}},
     _limit_rows(1.7e308)),
    ({"kind": "sweep_noise", "eval": {"n_inputs": 20, "schedules": [
        {"kind": "constant", "epsilon": 1.7e308}]}}, _start_flagged_rows),
]


class TestConfigValidation:
    def test_defaults_resolve_for_every_kind(self):
        for kind in EXPERIMENT_KINDS:
            resolved = resolve_config(default_config(kind))
            assert resolved["kind"] == kind
            assert resolved["schema_version"] == 1

    def test_a_tagged_section_is_its_class(self):
        """Each tagged variant checks its class's init fields, in order, minus
        the tag; a field is optional exactly where the class gives a default; and
        the record a default section builds gives back every field (arrays by
        value, a left-out one as its default), so a new field lands in both
        places or fails.  Every variant is built: the default configs' sections,
        a table schedule (no kind has one) and each time distribution without ``a``."""
        defaults = [default_config(kind) for kind in EXPERIMENT_KINDS]
        schedules = [{"kind": "table", "times": [0.0, 0.5, 1.0], "epsilons": [0.2, 0.1, 0.0]}]
        for cfg in defaults:
            schedules += [cfg["sampler"]["schedule"], *cfg["eval"].get("schedules", [])]
            schedules += [cfg["train"]["schedule"]] if "train" in cfg else []
        dists = [{"kind": kind} for kind in TIME_DISTRIBUTION_KINDS]
        dists += [cfg["train"]["time_dist"] for cfg in defaults if "train" in cfg]
        for parse, tag, table, optional, sections in (
            (harness.world_from_config, "type", harness._WORLDS, set(),
             [cfg["world"] for cfg in defaults]),
            (harness.schedule_from_config, "kind", harness._SCHEDULES, set(), schedules),
            (harness._time_dist_from_config, "kind", harness._TIME_DISTS, {"a"}, dists),
        ):
            for name, (cls, checks) in table.items():
                init = [f for f in dataclasses.fields(cls) if f.init and f.name != tag]
                assert list(checks) == [f.name for f in init], name
                assert {f.name for f in init if f.default is not dataclasses.MISSING} == optional
            for section in sections:
                record = parse(section)
                cls, checks = table[section[tag]]
                assert type(record) is cls and getattr(record, tag, section[tag]) == section[tag]
                default = {f.name: f.default for f in dataclasses.fields(cls)}
                for key in checks:
                    want = section.get(key, default[key])
                    assert np.array_equal(getattr(record, key), want), (section, key)
            assert {section[tag] for section in sections} == set(table)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            resolve_config({"kind": "imaginary"})

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            resolve_config({"seed": 1})

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            resolve_config({"kind": "toy2d_a", "wat": 1})

    def test_unknown_section_field(self):
        with pytest.raises(ConfigError, match="sampler.stepz"):
            resolve_config({"kind": "toy2d_a", "sampler": {"stepz": 3}})

    def test_schema_version_pinned(self):
        with pytest.raises(ConfigError, match="schema_version"):
            resolve_config({"kind": "toy2d_a", "schema_version": 2})

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="seed"):
            resolve_config({"kind": "toy2d_a", "seed": -1})
        with pytest.raises(ConfigError, match="seed"):
            resolve_config({"kind": "toy2d_a", "seed": 2**64})

    def test_bad_schedule_kind(self):
        with pytest.raises(ConfigError, match="schedule"):
            resolve_config({
                "kind": "toy2d_a",
                "sampler": {"schedule": {"kind": "cosine"}},
            })

    def test_schedule_field_spelling(self):
        with pytest.raises(ConfigError, match="schedule"):
            resolve_config({
                "kind": "toy2d_a",
                "sampler": {"schedule": {"kind": "constant", "eps": 0.1}},
            })

    def test_world_swap_is_atomic(self):
        """Replacing the default mixture world with a gaussian one must not
        inherit mixture fields."""
        cfg = resolve_config({
            "kind": "gauss1d",
            "world": {"type": "gaussian", "c": [1.0], "sigma_c": 2.0,
                      "sigma_n": 0.5},
        })
        assert cfg["world"]["sigma_c"] == 2.0
        assert "modes" not in cfg["world"]

    @pytest.mark.parametrize("wtype", ["mixture", "gaussian"])
    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_world_kind_must_match_experiment(self, kind, wtype):
        """Mode hit rates (eval.hit_threshold) need a mixture world and
        gauss1d's flow limit (eval.probe_y) a Gaussian one; sweep_steps,
        with neither, runs in both."""
        world = default_config("toy2d_a" if wtype == "mixture" else "gauss1d")["world"]
        ev = default_config(kind)["eval"]
        needs = [(key, need) for key, need in (("hit_threshold", "mixture"),
                                               ("probe_y", "gaussian"))
                 if key in ev and need != wtype]
        if not needs:
            resolve_config({"kind": kind, "world": world})
            return
        [(key, need)] = needs
        with pytest.raises(ConfigError, match=f"^world.type: eval.{key} needs a {need} world$"):
            resolve_config({"kind": kind, "world": world})

    def test_trajectory_only_for_gauss1d(self):
        with pytest.raises(ConfigError, match="record_trajectory"):
            resolve_config({
                "kind": "toy2d_a",
                "sampler": {"record_trajectory": True},
            })

    def test_probe_dimension_checked(self):
        with pytest.raises(ConfigError, match="probe_y"):
            resolve_config({
                "kind": "gauss1d",
                "eval": {"probe_y": [1.0, 2.0]},
            })

    def test_negative_hyperparameters_rejected(self):
        with pytest.raises(ConfigError, match="train"):
            resolve_config({
                "kind": "train_restore",
                "train": {"learning_rate": -0.5},
            })
        with pytest.raises(ConfigError, match="step_grid"):
            resolve_config({
                "kind": "sweep_steps",
                "eval": {"step_grid": [0]},
            })

    def test_sampler_names_validated(self):
        with pytest.raises(ConfigError, match="sampler"):
            resolve_config({
                "kind": "sampler_compare",
                "eval": {"samplers": ["iterative", "momentum"]},
            })

    def test_repeated_time_dists_refused(self):
        """A repeat would train the same model twice and write its one
        checkpoint file twice, from two pool processes under jobs > 1."""
        with pytest.raises(ConfigError, match=r"^eval\.time_dists\[2\]: .*eval\.time_dists\[0\]"):
            resolve_config({
                "kind": "sweep_pt",
                "eval": {"time_dists": ["linear_0", "bias_t1", "linear_0"]},
            })

    def test_time_dists_validated(self):
        with pytest.raises(ConfigError, match="time_dist"):
            resolve_config({
                "kind": "sweep_pt",
                "eval": {"time_dists": ["linear_b"]},
            })
        with pytest.raises(ConfigError, match="train.time_dist"):
            resolve_config({
                "kind": "train_restore",
                "train": {"time_dist": {"kind": "linear_a", "a": [1.0]}},
            })

    @pytest.mark.parametrize("field, value", [
        ("steps", 2.7), ("batch_size", 8.9), ("p_norm", 1.9), ("steps", True),
        ("learning_rate", True),
    ])
    def test_train_numbers_are_checked_not_truncated(self, field, value):
        with pytest.raises(ConfigError, match=f"train.{field}"):
            resolve_config({"kind": "train_restore", "train": {field: value}})

    @pytest.mark.parametrize("section", ["sampler", "train"])
    @pytest.mark.parametrize("times", [[0.0, 0.5], [0.5, 1.0]])
    def test_table_schedule_must_span_the_unit_interval(self, section, times):
        table = {"kind": "table", "times": times, "epsilons": [0.1, 0.0]}
        with pytest.raises(ConfigError, match=f"^{section}.schedule: table times must start at 0"):
            resolve_config({"kind": "train_restore", section: {"schedule": table}})

    def test_zero_sigma_kept_where_the_posterior_stays_proper(self):
        for kind in ("train_restore", "sweep_pt", "sampler_compare"):
            world = {**default_config(kind)["world"], "sigma": 0.0}
            resolve_config({"kind": kind, "world": world})
        resolve_config({
            "kind": "toy2d_a",
            "world": {**default_config("toy2d_a")["world"], "sigma": 0.0},
            "sampler": {"schedule": {"kind": "brownian", "epsilon": 0.1}},
        })

    def test_sweep_noise_refuses_a_sampler_schedule_it_would_ignore(self):
        """sweep_noise restores under eval.schedules only, so a changed
        sampler.schedule is an error rather than a silent no-op."""
        with pytest.raises(ConfigError, match="sampler.schedule"):
            resolve_config({
                "kind": "sweep_noise",
                "sampler": {"schedule": {"kind": "brownian", "epsilon": 0.5}},
            })
        resolve_config({
            "kind": "sweep_noise",
            "sampler": {"schedule": {"kind": "constant", "epsilon": 0.0}},
        })

    @pytest.mark.parametrize("kind, section, field, value", [
        ("sweep_steps", "sampler", "steps", 4),
        ("sampler_compare", "sampler", "steps", 77),
        ("sweep_pt", "train", "time_dist", {"kind": "bias_t1", "a": 0.0}),
    ])
    def test_swept_eval_list_refuses_the_field_it_replaces(self, kind, section, field,
                                                           value):
        """eval.step_grid replaces sampler.steps and eval.time_dists replaces
        train.time_dist, so a changed value there is an error rather than a
        silent no-op; the kind's default stays accepted."""
        with pytest.raises(ConfigError, match=f"{section}.{field}"):
            resolve_config({"kind": kind, section: {field: value}})
        default = default_config(kind)[section][field]
        resolve_config({"kind": kind, section: {field: default}})

    @pytest.mark.parametrize("raw, message", [
        ({"kind": "sampler_compare", "eval": {"estimator": "oracle"}, "train": {"steps": 7}},
         "train.steps: is unused when eval.estimator is oracle"),
        ({"kind": "sampler_compare", "eval": {"estimator": "oracle"},
          "train": {"steps": 7, "learning_rate": 5.0, "hidden": [3]}},
         "train.hidden: is unused when eval.estimator is oracle"),
        ({"kind": "sweep_pt", "eval": {"time_dists": ["linear_0", "bias_t1"], "a": 5.0}},
         "eval.a: is unused when eval.time_dists has no linear_a"),
        ({"kind": "train_restore", "train": {"time_dist": {"kind": "bias_t1", "a": 0.5}}},
         "train.time_dist.a: is unused when train.time_dist.kind is not linear_a"),
    ], ids=["oracle-train-steps", "oracle-train", "sweep_pt-a", "time_dist-a"])
    def test_unread_fields_are_refused(self, raw, message):
        """The oracle reads no train field, and eval.a and train.time_dist.a
        set only a linear_a model: a changed value there gave the rows of
        the default."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            resolve_config(raw)

    @pytest.mark.parametrize("raw", [
        {"kind": "sampler_compare", "eval": {"estimator": "trained"}, "train": {"steps": 7}},
        {"kind": "sampler_compare", "eval": {"estimator": "oracle"},
         "train": default_config("sampler_compare")["train"]},
        {"kind": "sweep_pt", "eval": {"time_dists": ["linear_a", "bias_t1"], "a": 5.0}},
    ], ids=["trained-train", "oracle-default-train", "sweep_pt-linear_a"])
    def test_fields_the_run_reads_may_change(self, raw):
        resolve_config(raw)

    @pytest.mark.parametrize("path, value", [
        ("world.sigma", "0.5"), ("world.sigma", True),
        ("sampler.schedule.epsilon", "0.1"), ("train.time_dist.a", "0.5"),
        ("schema_version", True), ("schema_version", 1.0),
        ("train.schedule", {"kind": "table", "times": "01", "epsilons": [0.1, 0.0]}),
        ("train.learning_rate", 10**400),
    ])
    def test_loose_values_are_refused_at_their_path(self, path, value):
        """Strings, bools and floats where a typed value belongs used to run
        after a conversion; an int beyond the float range raised TypeError."""
        cfg = resolve_config({"kind": "train_restore"})
        *parents, last = path.split(".")
        node = cfg
        for key in parents:
            node = node[key]
        node[last] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}[.\w]*: must be"):
            resolve_config(cfg)

    def test_load_config_errors_are_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad)
        array = tmp_path / "arr.json"
        array.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            load_config(array)


class TestExperimentRuns:
    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_every_kind_produces_rows(self, kind, tmp_path):
        report = run_experiment(tiny_config(kind, out_dir=tmp_path))
        assert report.kind == kind
        assert len(report.rows) >= 1
        assert report.columns == list(report.rows[0].keys())
        assert report.total_steps > 0
        assert report.wall_clock_s >= 0.0
        for row in report.rows:
            assert row["experiment"] == kind
            assert row["seed"] == 5
            assert row["divergent"] in (0, 1)

    def test_generate_from_noise_row_per_mode(self, tmp_path):
        report = run_experiment(
            tiny_config("generate_from_noise", out_dir=tmp_path)
        )
        assert len(report.rows) == 4
        freq = sum(r["frequency"] for r in report.rows)
        assert_allclose(freq, 1.0, atol=1e-12)
        for r in report.rows:
            assert r["prior_weight"] == 0.25

    def test_generate_from_noise_with_a_certain_mode(self, tmp_path):
        """Mode weights of 1 and 0 have no sampling spread: the standard
        error is 0 and the z-score is left empty instead of dividing by it."""
        cfg = tiny_config("generate_from_noise", out_dir=tmp_path)
        cfg["world"] = {**default_config("generate_from_noise")["world"],
                        "modes": [[1.0, 1.0], [-1.0, -1.0]], "weights": [1.0, 0.0]}
        report = run_experiment(cfg)
        assert [r["std_err"] for r in report.rows] == [0.0, 0.0]
        assert [r["z_score"] for r in report.rows] == [None, None]

    def test_generate_from_noise_assigns_modes_once(self, monkeypatch):
        """The per-mode counts and the hit rate share one nearest_modes call
        on the output (there were two)."""
        calls = []

        def counted(xs, world):
            calls.append(len(xs))
            return nearest_modes(xs, world)

        monkeypatch.setattr(harness, "nearest_modes", counted)
        report = run_experiment(tiny_config("generate_from_noise"), write=False)
        assert calls == [150]
        assert {r["mode_hit_rate"] for r in report.rows} == {report.rows[0]["mode_hit_rate"]}
        assert report.rows[0]["mode_hit_rate"] is not None

    def test_gauss1d_has_trajectory_when_asked(self, tmp_path):
        cfg = tiny_config("gauss1d", out_dir=tmp_path)
        cfg["sampler"]["record_trajectory"] = True
        report = run_experiment(cfg)
        assert report.trajectory is not None
        assert len(report.trajectory) == cfg["sampler"]["steps"] + 1
        assert report.trajectory[0]["t"] == 1.0
        assert report.trajectory[-1]["t"] == 0.0
        assert (tmp_path / "gauss1d_trajectory.csv").exists()

    def test_sweep_pt_writes_checkpoints_that_load(self, tmp_path):
        report = run_experiment(tiny_config("sweep_pt", out_dir=tmp_path))
        for row in report.rows:
            path = tmp_path / row["checkpoint"]
            assert path.exists()
            model = load_checkpoint(path)
            assert model.state_dim == 2
        names = {r["checkpoint"] for r in report.rows}
        assert names == {"checkpoint_linear_0.bin", "checkpoint_bias_t1.bin"}

    def test_train_restore_checkpoint(self, tmp_path):
        report = run_experiment(tiny_config("train_restore", out_dir=tmp_path))
        row = report.rows[0]
        assert row["loss_final"] is not None
        assert (tmp_path / "checkpoint.bin").exists()

    @pytest.mark.parametrize("kind, estimator, models, rows", [
        ("sweep_pt", None, 2, 2), ("train_restore", None, 1, 1),
        ("sampler_compare", "trained", 1, 6), ("sampler_compare", "oracle", 0, 6),
    ])
    def test_each_model_trains_once(self, kind, estimator, models, rows, monkeypatch):
        """One training run per time distribution, however many cells the
        model feeds: sweep_pt's tiny config sweeps two, sampler_compare's
        trained estimator feeds its whole grid."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(harness, "train", counted)
        cfg = tiny_config(kind) if estimator is None else tiny_config(kind, estimator=estimator)
        if estimator != "oracle":  # the oracle reads no train field
            cfg["train"] = dict(TINY_TRAIN)
        report = run_experiment(cfg, jobs=1, write=False)
        assert len(calls) == models
        assert len(report.rows) == rows

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_every_restore_cell_runs_in_one_grid(self, kind, monkeypatch):
        """Every kind hands its restore cells to _execute_cells in one call,
        models x schedules x samplers x step counts of them: the one cell of
        gauss1d and generate_from_noise too (they ran theirs directly)."""
        batches = []

        def counted(fn, cells, jobs):
            if fn is harness._restore_cell:
                batches.append(len(cells))
            return _execute_cells(fn, cells, jobs)

        monkeypatch.setattr(harness, "_execute_cells", counted)
        cfg = tiny_config(kind)
        ev = resolve_config(cfg)["eval"]
        axes = ("time_dists", "schedules", "samplers", "step_grid")
        run_experiment(cfg, write=False)
        assert batches == [math.prod(len(ev.get(axis, [None])) for axis in axes)]

    @pytest.mark.parametrize("probe", [0.0, 1e-9])
    def test_gauss1d_from_zero_is_not_divergent(self, probe):
        """A probe at 0 starts the guard at norm 0 (floored at 1e-12), so the
        first step toward the posterior mean read as a blow-up (flagged at
        step 1, or step 3 from 1e-9); the first estimate now sets the
        baseline when it is the larger."""
        cfg = tiny_config("gauss1d", probe_y=[probe])
        cfg["world"] = {**default_config("gauss1d")["world"], "c": [1.0]}
        cfg["sampler"]["steps"] = 1000
        row = run_experiment(cfg, write=False).rows[0]
        assert row["divergent"] == 0
        assert row["limit_0"] == pytest.approx(1.0 - math.sqrt(0.5))
        assert row["abs_error"] < 5e-4

    def test_jobs_do_not_change_results(self, tmp_path):
        cfg = tiny_config("sweep_steps")
        serial = run_experiment(dict(cfg), jobs=1, write=False)
        parallel = run_experiment(dict(cfg), jobs=3, write=False)
        assert serial.rows == parallel.rows

    @pytest.mark.parametrize("kind", ["gauss1d", "sweep_steps"])
    @pytest.mark.parametrize("field, value", [
        ("sigma_c", 1e300), ("sigma_n", 1e-300), ("sigma_n", 1e300),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_extreme_gaussian_world_runs(self, kind, field, value):
        """The squares of sigma_c, sigma_n and their ratio overflow to inf
        (they raised OverflowError): the flow limit stays finite (it was nan
        where (sigma_c / sigma_n)^2 overflows, and is then y), and the probe
        is flagged divergent or lands on it."""
        cfg = tiny_config(kind)
        cfg["world"] = {**default_config(kind)["world"], field: value}
        report = run_experiment(cfg, write=False)
        assert len(report.rows) == len(cfg.get("eval", {}).get("step_grid", [0]))
        if kind == "gauss1d":
            row = report.rows[0]
            assert math.isfinite(row["limit_0"])
            assert row["divergent"] == 1 or row["abs_error"] == 0.0

    @pytest.mark.parametrize("steps", [1, 10, 100])
    @pytest.mark.parametrize("kind, world, want", [
        ("toy2d_a", {}, (0.0, 1.0, 0.0)),
        ("toy2d_b", {}, (0.5, 0.0, 1.0)),  # the lost coordinate stays at its mean, 0
        # every mode below 2^-74, one at 0: the rows on it got a blend of 1e-196
        ("toy2d_a", {"modes": [[1.43304907e-196, 0.0], [0.0, 0.0], [1.32348898e-23, 0.0]],
                     "weights": [0.25, 0.5, 0.25]}, (0.0, 1.0, 0.0)),
    ])
    def test_noiseless_world_under_the_oracle_is_exact(self, kind, world, want, steps):
        """At world.sigma 0 the oracle's posterior is a point mass: (mse,
        mode_hit_rate, mean_min_dist) are exact and no row is flagged."""
        world = {**default_config(kind)["world"], **world, "sigma": 0.0}
        cfg = {"kind": kind, "world": world, "sampler": {"steps": steps}}
        [row] = run_experiment(cfg, write=False).rows
        assert (row["mse"], row["mode_hit_rate"], row["mean_min_dist"]) == want
        assert row["divergent"] == 0

    @pytest.mark.parametrize("cfg, want", [
        ({"kind": "toy2d_a", "eval": {"n_inputs": 20}, "sampler": {"steps": 4},
          "world": {**_MIXTURE_WORLD, "modes": [[1e308, 0.0], [-1e308, 0.0]]}},
         (0.0, None, 1.0, 0.0)),
        ({"kind": "toy2d_a", "eval": {"n_inputs": 4}, "sampler": {"steps": 1},
          "world": {**_MIXTURE_WORLD, "modes": [[1e155, 0.0], [-1e155, 0.0]], "sigma": 3e155}},
         (math.inf, -math.inf, 0.0, 8.086012903364665e154)),
    ])
    def test_extreme_mixture_world_raises_no_warning(self, cfg, want):
        """Modes at +-1e308 overflow the signal span, and at +-1e155 the squared
        error and every squared mode distance overflow; each warned, and
        mean_min_dist was inf at +-1e155."""
        [row] = run_experiment(cfg, write=False).rows
        assert (row["mse"], row["psnr"], row["mode_hit_rate"], row["mean_min_dist"]) == want
        assert row["divergent"] == 0

    def test_cold_diffusion_row_far_out_is_unflagged_and_finite(self):
        """Modes at +-1e308 seen through H = -1: cold diffusion's first
        correction est - y overflowed, which warned and flagged its row at
        step 0.  Its outputs stop at +-7.5e307, 2.5e307 from a mode each, and
        the mean of those 20 distances overflowed in its sum to inf."""
        world = {"type": "mixture", "modes": [[1e308], [-1e308]], "weights": [0.5, 0.5],
                 "H": [[-1.0]], "sigma": 0.0}
        cfg = {"kind": "sampler_compare", "world": world,
               "eval": {"estimator": "oracle", "n_inputs": 20, "step_grid": [4],
                        "hit_threshold": 0.01}}
        rows = {r["sampler"]: r for r in run_experiment(cfg, write=False).rows}
        cold = rows["cold_diffusion"]
        assert (cold["divergent"], cold["mode_hit_rate"], cold["mean_min_dist"]) == (0, 0.0, 2.5e307)
        assert all(r["divergent"] == 0 for r in rows.values())
        out = np.full((20, 1), 7.5e307)
        metrics = harness._metrics(cfg, harness.world_from_config(world), None, (out, None))
        assert metrics["mean_min_dist"] == 2.5e307

    def test_an_observation_that_overflows_is_flagged_without_a_warning(self):
        """Modes at +-1e308 under H = diag(3, 1): the observations overflow
        (the draw warned in the matmul), and the row is flagged at step 0."""
        world = {**_MIXTURE_WORLD, "modes": [[1e308, 0.0], [-1e308, 0.0]],
                 "H": [[3.0, 0.0], [0.0, 1.0]]}
        cfg = {"kind": "toy2d_a", "eval": {"n_inputs": 20}, "sampler": {"steps": 4},
               "world": world}
        [row] = run_experiment(cfg, write=False).rows
        assert (row["divergent"], row["divergence_step"]) == (1, 0)

    @pytest.mark.parametrize("kind, world", [
        ("sweep_steps", {"type": "gaussian", "c": [0.0], "sigma_c": 1e308, "sigma_n": 1.0}),
        ("sweep_steps", {"type": "gaussian", "c": [0.0], "sigma_c": 1.0, "sigma_n": 1e308}),
        ("toy2d_a", {**_MIXTURE_WORLD, "modes": [[1e308, 0.0], [-1e308, 0.0]],
                     "H": [[3.0, 0.0], [0.0, 1.0]], "sigma": _MAX}),
    ], ids=["gaussian-sigma_c", "gaussian-sigma_n", "mixture-sigma"])
    def test_a_draw_that_overflows_is_flagged_without_a_warning(self, kind, world):
        """A Gaussian world's clean draw or its noise overflows, which warned in
        the multiply; an inf degraded mode plus noise of the opposite inf warned
        in the add.  Every row is flagged at step 0."""
        cfg = {"kind": kind, "eval": {"n_inputs": 50}, "world": world}
        if kind == "sweep_steps":
            cfg["eval"]["step_grid"] = [1, 3]
        rows = run_experiment(cfg, write=False).rows
        assert rows and all((r["divergent"], r["divergence_step"]) == (1, 0) for r in rows)

    def test_a_mode_whose_observation_overflows_but_is_never_drawn(self):
        """A mode at 1e308 of weight 1e-13 under H = diag(3, 1): its degraded mode
        overflows, but no input comes from it, so the run restores every row onto
        a mode unflagged; the oracle stays finite on rows near the drawn modes and
        far out at 1e200 and 5e307, at t = 0 and where t D_i is inf."""
        world = {**_MIXTURE_WORLD, "modes": [[1e308, 0.0], [0.0, 0.0], [0.0, 1.0]],
                 "weights": [1e-13, 0.5, 0.5 - 1e-13], "H": [[3.0, 0.0], [0.0, 1.0]],
                 "sigma": 0.5}
        cfg = {"kind": "toy2d_a", "seed": 0, "eval": {"n_inputs": 50},
               "sampler": {"steps": 50}, "world": world}
        [row] = run_experiment(cfg, write=False).rows
        assert (row["mse"], row["mode_hit_rate"], row["mean_min_dist"]) == (0.08, 1.0, 0.0)
        assert row["divergent"] == 0
        oracle = harness.world_from_config(world).oracle()
        rows = np.array([[0.3, 0.2], [1e200, 0.0], [5e307, 0.0]])
        for t in (0.0, 1e-3, 0.1, 0.5, 1.0):
            assert np.isfinite(oracle(rows, t)).all(), t

    @pytest.mark.parametrize("sampler", ["iterative", "naive", "cold_diffusion"])
    def test_a_blown_up_output_is_flagged(self, sampler):
        """An estimate of 1e12 on the last step of N = 2 blows up the output,
        which feeds no estimator call: the cell checks it, at step N and t = 0.
        The same blow-up on step 1 of N = 3 shows at step 2, whose call it feeds."""
        def late(x, t):
            return np.full(np.shape(x), 0.0 if t > 0.5 else 1e12)

        def early(x, t):
            return np.full(np.shape(x), 1e12 if t == 2 / 3 else 0.0)

        for estimator, n, t in ((late, 2, 0.0), (early, 3, 1 / 3)):
            cell = (sampler, estimator, [[1.0, -1.0]], SamplerConfig(n), 1.0, False)
            err = harness._restore_cell(cell)
            assert isinstance(err, DivergenceError)
            assert (err.step_index, err.t) == (2, t)

    @pytest.mark.parametrize("sampler", ["iterative", "naive", "cold_diffusion"])
    def test_a_recording_cell_keeps_the_states_its_estimator_saw(self, sampler):
        """Recording, the cell's trajectory is the (t, state) of each estimator
        call, one a step, then (0.0, output); not recording, it is None."""
        seen = []

        def estimator(x, t):
            seen.append((t, x.copy()))
            return 0.5 * x + t

        y = [[1.0, -1.0], [0.25, 2.0]]
        config = SamplerConfig(4, ConstantSchedule(0.5), seed=3)
        output, trajectory = harness._restore_cell((sampler, estimator, y, config, 1.0, True))
        assert [t for t, _ in trajectory] == [1.0, 0.75, 0.5, 0.25, 0.0]
        for (t, state), (t_seen, state_seen) in zip(trajectory, [*seen, (0.0, output)]):
            assert t == t_seen
            assert state.tobytes() == state_seen.tobytes()
        seen.clear()
        again, untraced = harness._restore_cell((sampler, estimator, y, config, 1.0, False))
        assert untraced is None
        assert again.tobytes() == output.tobytes()

    def test_a_recording_cell_that_diverges_returns_its_error(self):
        def blows_up(x, t):
            return np.full(np.shape(x), 1e12 if t < 0.8 else 0.0)

        err = harness._restore_cell(("iterative", blows_up, [[1.0]], SamplerConfig(4), 1.0, True))
        assert isinstance(err, DivergenceError)
        assert (err.step_index, err.t) == (2, 0.5)

    def test_gauss1d_lands_on_its_limit_when_sigma_c_squared_overflows(self):
        """sigma_c = 1e200: the posterior mean is x_t and the flow is y (both
        were nan or warned), so the probe is not flagged and no warning is
        raised."""
        cfg = tiny_config("gauss1d")
        cfg["world"] = {**default_config("gauss1d")["world"], "sigma_c": 1e200}
        row = run_experiment(cfg, write=False).rows[0]
        assert (row["output_0"], row["limit_0"]) == (2.0, 2.0)
        assert (row["abs_error"], row["divergent"]) == (0.0, 0)

    def test_gauss1d_far_from_the_origin_runs_unflagged(self):
        """Prior mean and probe at 1e200: the guard's states square past the
        float range (its baseline was inf, with an overflow warning), and
        the probe runs to one unflagged row."""
        cfg = tiny_config("gauss1d", probe_y=[1e200])
        cfg["world"] = {"type": "gaussian", "c": [1e200], "sigma_c": 1.0, "sigma_n": 1.0}
        report = run_experiment(cfg, write=False)
        assert len(report.rows) == 1
        assert report.rows[0]["divergent"] == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_trained_estimator_reports_minus_infinite_psnr(self):
        """At N = 1 the stepwise rule returns the net's estimate at t = 1, which
        fixed the guard's baseline, so the output check passes it; a net trained
        at learning rate 1e300 outputs ~1e302, whose squared error overflows."""
        cfg = tiny_config("sampler_compare", estimator="trained")
        cfg["train"] = {**TINY_TRAIN, "learning_rate": 1e300}
        report = run_experiment(cfg, write=False)
        one_step = [r for r in report.rows if r["N"] == 1 and not r["divergent"]]
        assert one_step and all(r["psnr"] == -math.inf for r in one_step)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", ["train_restore", "sweep_pt", "sampler_compare"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_training_divergence_flags_the_rows_of_its_model(self, kind, jobs, tmp_path):
        """At learning rate 1e300 under p_norm 2 the training loss goes
        non-finite (it raised out of run_experiment): every row the model
        would have fed is divergent with no sampler step, losses, metrics or
        checkpoint, no checkpoint file is written, and the report is."""
        report = run_experiment(diverging_training_config(kind, tmp_path), jobs=jobs)
        empty = ("divergence_step", "loss_initial", "loss_final", "mse", "psnr", "ks",
                 "mode_hit_rate", "mean_min_dist", "checkpoint")
        assert report.rows
        for row in report.rows:
            assert row["divergent"] == 1
            assert [row.get(c) for c in empty] == [None] * len(empty)
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{kind}.csv", f"{kind}.json"]
        # the planned steps: train.steps per model, diverged or not, and each cell's N
        assert report.total_steps == {"train_restore": 40 + 5, "sweep_pt": 2 * 40 + 2 * 5,
                                      "sampler_compare": 40 + 3 * (1 + 4)}[kind]

    @pytest.mark.parametrize("kind, section, value", [
        ("toy2d_a", "world", {"sigma": 1.7e308}),
        ("train_restore", "world", {"sigma": 1.7e308}),
        ("sweep_steps", "sampler", {"schedule": {"kind": "brownian", "epsilon": 1.7e308}}),
        ("gauss1d", "sampler", {"schedule": {"kind": "brownian", "epsilon": 1.7e308}}),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_draws_are_flagged(self, kind, section, value):
        """Noise near the float range overflows the observed batch, the
        training pairs or the sampler's start (they raised ValueError):
        the rows are flagged divergent instead."""
        cfg = tiny_config(kind)
        cfg[section] = {**default_config(kind)[section], **cfg.get(section, {}), **value}
        report = run_experiment(cfg, write=False)
        assert [r["divergent"] for r in report.rows] == [1] * len(report.rows)

    @pytest.mark.parametrize("cfg, expect", _FAULT_CONFIGS,
                             ids=["knot", "psnr-underflow", "peak-overflow", "slope",
                                  "slope-sweep", "slope-swept", "small-sigma", "tiny-world",
                                  "small-sigma-trained", "posterior-overflow",
                                  "posterior-at-float-max", "flow-limit-overflow",
                                  "flow-limit-underflowed-scale", "start-noise-overflow"])
    def test_fault_configs_run_or_are_refused_at_their_path(self, cfg, expect):
        """Accepted configs that exited 1: a table knot one ulp above a grid
        point (a negative radicand by rounding), peak^2 underflowing in
        PSNR, a mixture whose signal peak overflows.  They run to rows.  A
        table whose slope overflows float64 is refused at its path.  Configs
        that exited 0 with wrong rows: generate_from_noise at sigma 1e-7, whose
        every row the guard flagged (its baseline was about sigma, and the
        path goes out to the modes at +-1), and the corners, H and sigma all
        scaled by 1e-200, whose squared distances rounded to 0 and gave
        frequencies (1, 0, 0, 0).  A trained model on the sigma 1e-7 world
        has its guard floored at the world's scale too.  Gaussian worlds whose
        posterior mean or flow limit is a float although a term of its formula
        overflows: every sweep_steps row was flagged at step 0, and the gauss1d
        limit read -inf or nan, with a warning.  Start noise past the float
        range flags its row at step 0, as it did, with no warning now."""
        if isinstance(expect, str):
            message = f"^{re.escape(expect)}: table slopes must be finite$"
            with pytest.raises(ConfigError, match=message):
                run_experiment(cfg, write=False)
        else:
            expect(run_experiment(cfg, write=False).rows)

    def test_one_input_has_no_ks(self):
        report = run_experiment(tiny_config("sweep_steps", n_inputs=1), write=False)
        assert [r["ks"] for r in report.rows] == [None] * 3
        assert all(r["mse"] is not None for r in report.rows)

    def test_sweep_steps_on_a_mixture_world(self):
        cfg = tiny_config("sweep_steps")
        cfg["world"] = default_config("toy2d_a")["world"]
        report = run_experiment(cfg, write=False)
        for row in report.rows:
            assert row["mode_hit_rate"] is None
            assert row["mean_min_dist"] is not None

    def test_same_seed_same_rows(self):
        a = run_experiment(tiny_config("toy2d_a"), write=False)
        b = run_experiment(tiny_config("toy2d_a"), write=False)
        assert a.rows == b.rows

    def test_different_seed_different_rows(self):
        cfg = tiny_config("toy2d_a")
        a = run_experiment(dict(cfg), write=False)
        cfg["seed"] = 6
        b = run_experiment(dict(cfg), write=False)
        assert a.rows != b.rows


class TestReportEmission:
    def test_csv_is_byte_identical_across_runs(self, tmp_path):
        cfg = tiny_config("sweep_steps")
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        run_experiment({**cfg, "out_dir": str(dir_a)})
        run_experiment({**cfg, "out_dir": str(dir_b)})
        assert (dir_a / "sweep_steps.csv").read_bytes() == \
            (dir_b / "sweep_steps.csv").read_bytes()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2 or not os.path.isdir("/proc/self/task"),
                        reason="needs two CPUs, and /proc to count OpenBLAS's threads")
    def test_csv_is_byte_identical_across_blas_thread_counts(self, tmp_path):
        """A trained run (128-wide GEMMs, big enough for OpenBLAS to split)
        writes the same bytes at one and two BLAS threads; each run is a
        fresh interpreter, since OpenBLAS reads its thread count at load,
        and prints its OS thread count to show the setting took."""
        cfg = {"kind": "train_restore", "seed": 1, "train": {"steps": 300},
               "eval": {"n_inputs": 1000}}
        code = ("import json, os, sys\n"
                "from restep import run_experiment\n"
                "run_experiment(json.loads(sys.argv[1]), formats=('csv',))\n"
                "print(len(os.listdir('/proc/self/task')))\n")
        src = str(Path(harness.__file__).resolve().parent.parent)
        threads = {}
        for n in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-c", code, json.dumps({**cfg, "out_dir": str(tmp_path / n)})],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": n},
                capture_output=True, text=True, check=True)
            threads[n] = int(run.stdout)
        assert threads["1"] < threads["2"]
        for name in ("train_restore.csv", "checkpoint.bin"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_csv_and_json_numerics_agree(self, tmp_path):
        run_experiment(tiny_config("sweep_steps", out_dir=tmp_path))
        with open(tmp_path / "sweep_steps.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        doc = json.loads((tmp_path / "sweep_steps.json").read_text())
        assert len(rows) == len(doc["rows"])
        for crow, jrow in zip(rows, doc["rows"]):
            for key, jval in jrow.items():
                cval = crow[key]
                if jval is None:
                    assert cval == ""
                elif isinstance(jval, float):
                    assert float(cval) == jval
                elif isinstance(jval, int):
                    assert int(cval) == jval
                else:
                    assert cval == str(jval)

    def test_json_carries_config_and_meta(self, tmp_path):
        run_experiment(tiny_config("toy2d_b", out_dir=tmp_path))
        doc = json.loads((tmp_path / "toy2d_b.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["kind"] == "toy2d_b"
        assert doc["config"]["seed"] == 5
        assert doc["config"]["world"]["sigma"] == 0.3
        assert doc["meta"]["wall_clock_s"] > 0.0
        assert doc["meta"]["total_steps"] > 0
        assert doc["columns"] == list(doc["rows"][0].keys())

    def test_float_cells_use_17_significant_digits(self, tmp_path):
        run_experiment(tiny_config("gauss1d", out_dir=tmp_path))
        with open(tmp_path / "gauss1d.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        val = row["output_0"]
        assert float(val) == float(f"{float(val):.17g}")
        assert len(val.replace("-", "").replace(".", "").lstrip("0")) >= 15

    def test_csv_only_format(self, tmp_path):
        run_experiment(
            tiny_config("toy2d_a", out_dir=tmp_path), formats=("csv",)
        )
        assert (tmp_path / "toy2d_a.csv").exists()
        assert not (tmp_path / "toy2d_a.json").exists()

    def test_bad_format_is_refused_before_the_run(self, tmp_path):
        out = tmp_path / "never"
        with pytest.raises(ConfigError, match="^format"):
            run_experiment(tiny_config("toy2d_a", out_dir=out), formats=("xml",))
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_an_unflagged_cell_error_is_raised_unchanged(self, jobs):
        with pytest.raises(ZeroDivisionError, match="^cell 1 failed$"):
            _execute_cells(_fail_at_cell_one, [0, 1, 2], jobs)

    def test_unknown_format_rejected(self, tmp_path):
        report = run_experiment(tiny_config("toy2d_a"), write=False)
        report.config["out_dir"] = str(tmp_path)
        with pytest.raises(ConfigError, match="format"):
            emit_report(report, formats=("xml",))

    def test_header_only_when_no_rows(self, tmp_path):
        from restep.harness import RunReport
        report = RunReport(
            kind="toy2d_a", config={"out_dir": str(tmp_path)},
            columns=["a", "b"], rows=[],
        )
        emit_report(report, formats=("csv",))
        assert (tmp_path / "toy2d_a.csv").read_text() == "a,b\n"

    def test_a_write_failure_names_the_directory(self, tmp_path):
        from restep.harness import RunReport
        (tmp_path / "toy2d_a.csv").mkdir()
        report = RunReport(kind="toy2d_a", config={"out_dir": str(tmp_path)},
                           columns=["a"], rows=[{"a": 1}])
        want = f"^cannot write report under {re.escape(str(tmp_path))}: \\[Errno 21\\] Is a dir"
        with pytest.raises(OSError, match=want):
            emit_report(report)
        assert report.output_paths == []


class TestCli:
    def write_config(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = self.write_config(
            tmp_path, tiny_config("toy2d_a", out_dir=tmp_path / "out")
        )
        code = cli_main(["run", "--config", cfg_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "toy2d_a" in out
        assert (tmp_path / "out" / "toy2d_a.csv").exists()

    def test_run_requires_config(self, capsys):
        assert cli_main(["run"]) == 2
        assert "requires --config" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, capsys):
        assert cli_main(["run", "--config", "/nonexistent/x.json"]) == 2

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        """A file that is not UTF-8 text raised a UnicodeDecodeError traceback."""
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        assert cli_main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: config:")

    def test_kind_mismatch_is_usage_error(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, tiny_config("toy2d_a"))
        assert cli_main(["sweep-steps", "--config", cfg_path]) == 2
        assert "kind" in capsys.readouterr().err

    def test_seed_and_out_overrides(self, tmp_path):
        cfg_path = self.write_config(tmp_path, tiny_config("toy2d_a"))
        out = tmp_path / "cli_out"
        code = cli_main([
            "run", "--config", cfg_path, "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "toy2d_a.json").read_text())
        assert doc["config"]["seed"] == 9

    def test_subcommands_have_defaults(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, {
            "kind": "sweep_steps",
            "eval": {"n_inputs": 50, "step_grid": [1, 2]},
            "out_dir": str(tmp_path / "s"),
        })
        assert cli_main(["sweep-steps", "--config", cfg_path]) == 0
        assert (tmp_path / "s" / "sweep_steps.csv").exists()

    def test_format_flag(self, tmp_path):
        cfg_path = self.write_config(
            tmp_path, tiny_config("toy2d_a", out_dir=tmp_path / "fmt")
        )
        assert cli_main(["run", "--config", cfg_path, "--format", "csv"]) == 0
        assert (tmp_path / "fmt" / "toy2d_a.csv").exists()
        assert not (tmp_path / "fmt" / "toy2d_a.json").exists()

    def test_bad_format_is_usage_error(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, tiny_config("toy2d_a"))
        assert cli_main(["run", "--config", cfg_path, "--format", "yaml"]) == 2

    @pytest.mark.parametrize("flags", [["--format", ","], ["--jobs", "0"]])
    def test_flags_are_checked_before_the_run(self, tmp_path, capsys, flags):
        """The format and jobs checks are run_experiment's, made before it
        creates the output directory."""
        out = tmp_path / "out"
        cfg_path = self.write_config(tmp_path, tiny_config("toy2d_a", out_dir=out))
        assert cli_main(["run", "--config", cfg_path, *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flags[0][2:]}:")
        assert not out.exists()

    def test_unwritable_out_dir_is_io_error(self, tmp_path, capsys):
        cfg_path = self.write_config(
            tmp_path,
            tiny_config("toy2d_a", out_dir="/proc/nonexistent/out"),
        )
        assert cli_main(["run", "--config", cfg_path]) == 1

    def test_a_report_path_that_is_a_directory_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "toy2d_a.csv").mkdir(parents=True)
        cfg_path = self.write_config(tmp_path, tiny_config("toy2d_a", out_dir=out))
        assert cli_main(["run", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write report under {out}: ")
        assert "Is a directory" in err

    def test_a_named_subcommand_runs_its_defaults_without_config(self, tmp_path):
        assert cli_main(["sweep-steps", "--out", str(tmp_path / "cli")]) == 0
        run_experiment({**default_config("sweep_steps"), "out_dir": str(tmp_path / "run")},
                       formats=("csv",))
        assert (tmp_path / "cli" / "sweep_steps.csv").read_bytes() == \
            (tmp_path / "run" / "sweep_steps.csv").read_bytes()

    def test_jobs_flag(self, tmp_path):
        cfg_path = self.write_config(
            tmp_path, tiny_config("sweep_steps", out_dir=tmp_path / "j")
        )
        assert cli_main(["run", "--config", cfg_path, "--jobs", "2"]) == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_training_divergence_exits_zero(self, tmp_path, capsys):
        cfg = diverging_training_config("train_restore", tmp_path / "out")
        assert cli_main(["train", "--config", self.write_config(tmp_path, cfg)]) == 0
        assert "train_restore: 1 rows" in capsys.readouterr().out
        assert (tmp_path / "out" / "train_restore.csv").exists()

    @pytest.mark.parametrize("kind, sigma", [
        pytest.param("toy2d_a", 0, id="toy2d_a"),
        pytest.param("sweep_noise", 0, id="sweep_noise"),
        pytest.param("toy2d_a", 5e-324, id="toy2d_a-subnormal"),  # t * 5e-324 rounds to 0
        pytest.param("sweep_noise", 5e-324, id="sweep_noise-subnormal"),
    ])
    def test_zero_sigma_under_the_oracle_runs(self, kind, sigma, tmp_path):
        """These exited 2 at world.sigma: the oracle raised at sigma_t = 0."""
        cfg = tiny_config(kind, out_dir=tmp_path / "out")
        cfg["world"] = {**default_config(kind)["world"], "sigma": sigma}
        assert cli_main(["run", "--config", self.write_config(tmp_path, cfg)]) == 0
        with open(tmp_path / "out" / f"{kind}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["divergent"] == "0" for r in rows)

    def test_weights_that_do_not_sum_to_one_are_usage_error(self, tmp_path, capsys):
        cfg = tiny_config("toy2d_a", out_dir=tmp_path / "out")
        cfg["world"] = {**default_config("toy2d_a")["world"], "weights": [0.3] * 4}
        assert cli_main(["run", "--config", self.write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == "error: world: weights must sum to 1 within 1e-12\n"
