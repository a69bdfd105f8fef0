import csv
import json
import math
import re

import pytest
from numpy.testing import assert_allclose

from restep import harness
from restep.cli import main as cli_main
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
from restep.regressor import load_checkpoint

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


class TestConfigValidation:
    def test_defaults_resolve_for_every_kind(self):
        for kind in EXPERIMENT_KINDS:
            resolved = resolve_config(default_config(kind))
            assert resolved["kind"] == kind
            assert resolved["schema_version"] == 1

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

    def test_world_kind_must_match_experiment(self):
        with pytest.raises(ConfigError, match="mixture"):
            resolve_config({
                "kind": "toy2d_a",
                "world": {"type": "gaussian", "c": [0.0], "sigma_c": 1.0,
                          "sigma_n": 1.0},
            })

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
        with pytest.raises(ConfigError, match=f"{section}.schedule.times"):
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

        def counted(xs, prior):
            calls.append(len(xs))
            return nearest_modes(xs, prior)

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

    def test_gauss1d_lands_on_its_limit_when_sigma_c_squared_overflows(self):
        """sigma_c = 1e200: the posterior mean is x_t and the flow is y (both
        were nan or warned), so the probe is not flagged and no warning is
        raised."""
        cfg = tiny_config("gauss1d")
        cfg["world"] = {**default_config("gauss1d")["world"], "sigma_c": 1e200}
        row = run_experiment(cfg, write=False).rows[0]
        assert (row["output_0"], row["limit_0"]) == (2.0, 2.0)
        assert (row["abs_error"], row["divergent"]) == (0.0, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_trained_estimator_reports_minus_infinite_psnr(self):
        """At N = 1 the stepwise rule returns the net's output unchecked by the
        guard; a net trained at learning rate 1e300 outputs ~1e302, whose
        squared error overflows."""
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
    def test_zero_sigma_under_the_oracle_is_usage_error(self, kind, sigma, tmp_path, capsys):
        cfg = tiny_config(kind, out_dir=tmp_path / "out")
        cfg["world"] = {**default_config(kind)["world"], "sigma": sigma}
        assert cli_main(["run", "--config", self.write_config(tmp_path, cfg)]) == 2
        assert "world.sigma" in capsys.readouterr().err
