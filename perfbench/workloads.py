"""The benchmark's workloads and the checks their reports must pass.

A workload is a list of experiments run one after another through
``restep.run_experiment``; one run of the whole list is a *pass*.  Each
experiment is a partial config that ``resolve_config`` completes from its
kind's defaults; the seed and output directory are filled in per pass.

The module imports only the standard library, so ``run.py`` can fix the
BLAS thread count before numpy is first imported.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

# The seed whose CSV digests are pinned in reference.json.
GOLDEN_SEED = 0

WORKLOADS = {
    # Training is most of a pass: the per-sample pair stream, the backward
    # pass and Adam.  A short restore with the trained net follows.
    "train_mlp": [
        {
            "kind": "train_restore",
            "train": {"hidden": [128, 128], "batch_size": 256, "steps": 300},
            "eval": {"n_inputs": 1000},
        },
    ],
    # No training: the closed-form oracles drive all three samplers, the
    # Brownian schedules exercise noise injection, and the Gaussian world
    # covers the Gaussian oracle and the KS metric.
    "restore_oracle": [
        {
            "kind": "sampler_compare",
            "eval": {"estimator": "oracle", "n_inputs": 1000},
        },
        {
            "kind": "sweep_noise",
            "eval": {"n_inputs": 1000},
        },
        {
            "kind": "sweep_steps",
            "eval": {"n_inputs": 10000, "step_grid": [1, 2, 4, 10, 50, 100, 1000]},
        },
    ],
    # A short training run, then MLP inference on 1000-row batches through
    # all three samplers: the forward pass without the backward pass.
    "restore_mlp": [
        {
            "kind": "sampler_compare",
            "train": {"hidden": [64, 64], "steps": 300},
            "eval": {"n_inputs": 1000, "step_grid": [1, 2, 3, 10, 100, 300]},
        },
    ],
}

# Spans (see tracer.py) each workload must call at least once per traced
# pass; a layer that reads zero there means a wrapper no longer sits where
# the callers look the function up.
_COMMON_LAYERS = (
    "harness.run_experiment", "harness.resolve_config", "harness.emit_report",
    "worlds.sample_pairs", "worlds.guard", "degradation.injected_noise_std",
    "samplers.iterative", "metrics.distortion", "metrics.nearest_modes",
)
_TRAINING_LAYERS = (
    "worlds.pair_stream", "degradation.forward_interpolate",
    "regressor.train", "regressor.loss_and_gradients", "regressor.sample_times",
    "regressor.predict",
)
REQUIRED_LAYERS = {
    "train_mlp": _COMMON_LAYERS + _TRAINING_LAYERS,
    "restore_oracle": _COMMON_LAYERS + (
        "oracles.mixture", "oracles.gaussian", "samplers.naive",
        "samplers.cold_diffusion", "metrics.ks",
    ),
    "restore_mlp": _COMMON_LAYERS + _TRAINING_LAYERS + (
        "samplers.naive", "samplers.cold_diffusion",
    ),
}


def configs(workload: str, seed: int, out_dir: str) -> list:
    """The workload's raw experiment configs for one pass."""
    out = []
    for exp in WORKLOADS[workload]:
        cfg = {key: dict(val) if isinstance(val, dict) else val
               for key, val in exp.items()}
        cfg["seed"] = seed
        cfg["out_dir"] = out_dir
        out.append(cfg)
    return out


def work(cfg: dict) -> tuple:
    """(restored rows x sampler steps, optimizer steps) of one resolved config."""
    ev = cfg["eval"]
    kind = cfg["kind"]
    steps = cfg["sampler"]["steps"]
    if kind == "sampler_compare":
        row_steps = ev["n_inputs"] * len(ev["samplers"]) * sum(ev["step_grid"])
    elif kind == "sweep_steps":
        row_steps = ev["n_inputs"] * sum(ev["step_grid"])
    elif kind == "sweep_noise":
        row_steps = ev["n_inputs"] * steps * len(ev["schedules"])
    else:
        row_steps = ev["n_inputs"] * steps
    trained = "train" in cfg and (kind != "sampler_compare" or ev["estimator"] == "trained")
    return row_steps, cfg["train"]["steps"] if trained else 0


# ---- report checks ---- #


def _number(text: str) -> float:
    return float(text) if text != "" else math.nan


def invariant_errors(kind: str, csv_text: str) -> list:
    """Seed-free properties the report of ``kind`` must have."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if not rows:
        return ["report has no rows"]
    errors = []
    for i, row in enumerate(rows):
        if row.get("divergent") != "1" and not math.isfinite(_number(row.get("mse", ""))):
            errors.append(f"row {i}: mse {row.get('mse')!r} is not a finite number")
    iterative = [r for r in rows if r.get("sampler", "iterative") == "iterative"]
    if any(r["divergent"] != "0" for r in iterative):
        errors.append("an iterative row diverged")
    if kind == "sampler_compare":
        at_one = {r["sampler"]: r["mse"] for r in rows if r["N"] == "1"}
        if "iterative" in at_one and at_one.get("naive") != at_one["iterative"]:
            errors.append(
                f"naive mse {at_one.get('naive')} != iterative mse "
                f"{at_one['iterative']} at N = 1"
            )
    elif kind == "sweep_steps":
        by_n = {int(r["N"]): r for r in rows}
        mse = {n: _number(r["mse"]) for n, r in by_n.items()}
        if 1 not in by_n or min(mse, key=mse.get) != 1:
            errors.append("sweep_steps mse is not smallest at N = 1")
        else:
            ks_one = _number(by_n[1]["ks"])
            for n, r in by_n.items():
                if n >= 50 and not _number(r["ks"]) < ks_one:
                    errors.append(f"sweep_steps ks at N = {n} is not below ks at N = 1")
    elif kind == "train_restore":
        for r in rows:
            if not _number(r["loss_final"]) < _number(r["loss_initial"]):
                errors.append(
                    f"training did not lower the loss: {r['loss_initial']} -> "
                    f"{r['loss_final']}"
                )
    return errors


class ReportChecker:
    """Checks each report a workload writes.

    Three rules: the seed-free invariants above; at ``GOLDEN_SEED`` the
    CSV's SHA-256 equals the pinned digest; and every repeat of one
    (experiment, seed) in this process is byte-identical to the first.
    """

    def __init__(self, golden: dict):
        self.golden = golden
        self._first = {}

    def errors(self, label: str, kind: str, seed: int, csv_bytes: bytes) -> list:
        errors = invariant_errors(kind, csv_bytes.decode("utf-8"))
        digest = hashlib.sha256(csv_bytes).hexdigest()
        if seed == GOLDEN_SEED and self.golden.get(label) != digest:
            errors.append(
                f"CSV sha256 {digest} != golden {self.golden.get(label)} at seed {seed}"
            )
        first = self._first.setdefault((label, seed), digest)
        if first != digest:
            errors.append(f"CSV differs from the first repeat at seed {seed}")
        return errors
