"""The benchmark's own tests: each report check fires, and the spans land
on the layers each workload is said to exercise.

Run from the root of a checkout with ``PYTHONPATH=src python3 -m pytest
perfbench``.
"""

from __future__ import annotations

import copy
import hashlib
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import workloads
from tracer import Tracer, install, pass_metrics

HEADER = "experiment,seed,variant,sampler,N,mse,ks,divergent,loss_initial,loss_final"
TRAIN_RESTORE_CSV = (
    HEADER + "\n"
    "train_restore,0,0,iterative,100,0.63,,0,0.227,0.156\n"
)
SWEEP_STEPS_CSV = (
    HEADER + "\n"
    "sweep_steps,0,0,iterative,1,0.48,0.090,0,,\n"
    "sweep_steps,0,1,iterative,10,0.55,0.015,0,,\n"
    "sweep_steps,0,2,iterative,100,0.57,0.009,0,,\n"
)
SAMPLER_COMPARE_CSV = (
    HEADER + "\n"
    "sampler_compare,0,0,iterative,1,0.50455,,0,,\n"
    "sampler_compare,0,1,iterative,10,0.61,,0,,\n"
    "sampler_compare,0,2,naive,1,0.50455,,0,,\n"
    "sampler_compare,0,3,naive,10,0.62,,1,,\n"
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def writing(csv_by_call):
    """A stand-in for run_experiment that writes the next CSV of the list;
    an exception in the list is raised instead."""
    calls = iter(csv_by_call)

    def run_experiment(cfg, jobs, write):
        csv_text = next(calls)
        if isinstance(csv_text, Exception):
            raise csv_text
        path = Path(cfg["out_dir"]) / f"{cfg['kind']}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(csv_text, encoding="utf-8")
        return SimpleNamespace(output_paths=[str(path), str(path.with_suffix(".json"))])

    return run_experiment


class NoProbe:
    """A machine whose speed never changes."""

    reference_s = 1.0

    @staticmethod
    def seconds():
        return 1.0


def failed_frac(tmp_path, csv_by_call, golden, seed=3, workload="train_mlp"):
    """failed / attempted of a measured run with zero seconds: the warm-up
    at the golden seed and the minimum number of passes at ``seed``."""
    harness = SimpleNamespace(run_experiment=writing(csv_by_call))
    raw = run.measure(harness, workload, seed, 0.0, False, golden, NoProbe(),
                      tmp_path / "out")
    return len(raw["failures"]) / raw["attempted"], raw


GOLDEN = {"train_mlp/train_restore": sha256(TRAIN_RESTORE_CSV)}
PASSES = 1 + run.MIN_PASSES


def test_clean_run_has_no_failures(tmp_path):
    frac, raw = failed_frac(tmp_path, [TRAIN_RESTORE_CSV] * PASSES, GOLDEN)
    assert frac == 0.0
    assert raw["attempted"] == PASSES


def test_corrupted_csv_counts_against_failed_frac(tmp_path):
    corrupted = TRAIN_RESTORE_CSV.replace("0.227,0.156", "0.156,0.227")
    frac, raw = failed_frac(tmp_path, [TRAIN_RESTORE_CSV] + [corrupted] * run.MIN_PASSES, GOLDEN)
    assert frac == run.MIN_PASSES / PASSES
    assert "did not lower the loss" in raw["failures"][0]


def test_wrong_golden_hash_counts_against_failed_frac(tmp_path):
    golden = {"train_mlp/train_restore": sha256("something else")}
    frac, raw = failed_frac(tmp_path, [TRAIN_RESTORE_CSV] * PASSES, golden)
    assert frac == 1 / PASSES
    assert "golden" in raw["failures"][0]


def test_raised_exception_counts_against_failed_frac(tmp_path):
    csvs = [TRAIN_RESTORE_CSV, RuntimeError("boom")] + [TRAIN_RESTORE_CSV] * (PASSES - 2)
    frac, raw = failed_frac(tmp_path, csvs, GOLDEN)
    assert frac == 1 / PASSES
    assert "raised RuntimeError: boom" in raw["failures"][0]


def test_repeat_that_differs_counts_against_failed_frac(tmp_path):
    other = TRAIN_RESTORE_CSV.replace("0.63", "0.64")
    csvs = [TRAIN_RESTORE_CSV, TRAIN_RESTORE_CSV, other] + [TRAIN_RESTORE_CSV] * (PASSES - 3)
    frac, raw = failed_frac(tmp_path, csvs, GOLDEN)
    assert frac == 1 / PASSES
    assert "differs from the first repeat" in raw["failures"][0]


def test_layer_without_calls_fails_the_traced_run(tmp_path):
    csvs = [TRAIN_RESTORE_CSV] * (1 + 2 * run.MIN_PASSES)
    harness = SimpleNamespace(run_experiment=writing(csvs))
    raw = run.measure(harness, "train_mlp", 3, 0.0, True, GOLDEN, NoProbe(), tmp_path / "out")
    assert raw["failures"] == []
    assert "layer regressor.train recorded no calls" in raw["trace_errors"]
    assert "layer harness.run_experiment recorded no calls" not in raw["trace_errors"]


@pytest.mark.parametrize("kind, csv_text, old, new, message", [
    ("sweep_steps", SWEEP_STEPS_CSV, "0.48,0.090", "0.58,0.090", "smallest at N = 1"),
    ("sweep_steps", SWEEP_STEPS_CSV, "0.57,0.009", "0.57,0.095", "ks at N = 100"),
    ("sweep_steps", SWEEP_STEPS_CSV, "0.55,0.015", ",0.015", "not a finite number"),
    ("sampler_compare", SAMPLER_COMPARE_CSV, "naive,1,0.50455", "naive,1,0.5046",
     "naive mse"),
    ("sampler_compare", SAMPLER_COMPARE_CSV, "10,0.61,,0", "10,0.61,,1",
     "iterative row diverged"),
    ("train_restore", TRAIN_RESTORE_CSV, "0.227,0.156", "0.227,0.227", "did not lower"),
])
def test_each_invariant_fires(kind, csv_text, old, new, message):
    assert workloads.invariant_errors(kind, csv_text) == []
    errors = workloads.invariant_errors(kind, csv_text.replace(old, new))
    assert any(message in e for e in errors), errors


def test_report_without_rows_fails():
    assert workloads.invariant_errors("train_restore", HEADER + "\n") == ["report has no rows"]


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.calls["inner"] == 3 and tracer.calls["outer"] == 1
    assert tracer.self_s["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"], abs=1e-9)
    assert tracer.self_s["inner"] == pytest.approx(tracer.total["inner"], abs=1e-12)


def test_tracer_counts_raises_and_stream_items():
    tracer = Tracer()

    def fail():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("f", fail)()
    stream = tracer.wrap_stream("s", lambda: iter(range(5)))
    assert list(stream()) == [0, 1, 2, 3, 4]
    assert tracer.counts["f.raised"] == 1
    assert tracer.calls["s"] == 5


def shrunk(cfg: dict) -> dict:
    """``cfg`` at a size that runs in well under a second."""
    cfg = copy.deepcopy(cfg)
    cfg["eval"]["n_inputs"] = 20
    if "train" in cfg:
        cfg["train"].update(hidden=[8], steps=2, batch_size=8)
    return cfg


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_required_layer_is_traced(workload, tmp_path):
    from restep import harness

    original_train = harness.train
    cfgs = [shrunk(c) for c in workloads.configs(workload, 1, str(tmp_path / "plain"))]
    plain = [Path(harness.run_experiment(c).output_paths[0]).read_bytes() for c in cfgs]

    tracer = Tracer()
    traced_run = tracer.wrap("harness.run_experiment", harness.run_experiment)
    uninstall = install(tracer)
    try:
        for c in cfgs:
            c["out_dir"] = str(tmp_path / "traced")
        traced = [Path(traced_run(c).output_paths[0]).read_bytes() for c in cfgs]
    finally:
        uninstall()

    assert harness.train is original_train
    assert traced == plain
    missing = [n for n in workloads.REQUIRED_LAYERS[workload] if tracer.calls[n] == 0]
    assert missing == []
    metrics = pass_metrics(tracer)
    assert 0.0 <= metrics["trace.unattributed_frac"] < 1.0


def test_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "train_mlp", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
