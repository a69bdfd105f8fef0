"""Pinned report digests for every experiment kind.

Each case runs one kind at the small sizes of ``test_harness.tiny_config``
and compares what it wrote against digests taken from the harness before
its runners were consolidated into one kind table: the SHA-256 of the CSV,
of the JSON report without its two run-dependent entries
(``meta.wall_clock_s`` and ``config.out_dir``; key order is kept, since the
config echo's order is part of the report), of a recorded trajectory, the
step total and the set of files written.  Every case runs at ``jobs`` 1 and
2.  The digests are a fixed record: a change that moves one changes a report.
The two ``sampler_compare`` JSON digests were taken again when its tiny
config stopped setting ``sampler.steps``, which ``eval.step_grid`` replaces;
only the config echo of that field moved (4 -> 100).
"""

import hashlib
import json

import pytest

from restep.harness import run_experiment
from test_harness import TINY_TRAIN, tiny_config


def _case(name):
    if name == "sampler_compare_trained":
        cfg = tiny_config("sampler_compare", estimator="trained")
        cfg["train"] = dict(TINY_TRAIN)
    elif name == "gauss1d_trajectory":
        cfg = tiny_config("gauss1d")
        cfg["sampler"]["record_trajectory"] = True
    elif name == "train_restore_linear_a":
        cfg = tiny_config("train_restore")
        cfg["train"]["time_dist"] = {"kind": "linear_a", "a": 0.5}
    else:
        cfg = tiny_config(name)
    return cfg


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digests(cfg: dict, jobs: int, out_dir) -> dict:
    """Run ``cfg`` into ``out_dir`` and digest what it wrote."""
    report = run_experiment({**cfg, "out_dir": str(out_dir)}, jobs=jobs)
    kind = cfg["kind"]
    doc = json.loads((out_dir / f"{kind}.json").read_text(encoding="utf-8"))
    del doc["meta"]["wall_clock_s"]
    del doc["config"]["out_dir"]
    digests = {
        "csv": _sha((out_dir / f"{kind}.csv").read_bytes()),
        "json": _sha(json.dumps(doc, indent=2).encode("utf-8")),
        "total_steps": report.total_steps,
        "files": sorted(p.name for p in out_dir.iterdir()),
    }
    trajectory = out_dir / f"{kind}_trajectory.csv"
    if trajectory.exists():
        digests["trajectory"] = _sha(trajectory.read_bytes())
    return digests


GOLDEN = {
    "toy2d_a": {
        "csv": "b9bd6b7e731f5ffa8e5ba05755a4911fa810787afda4ac510a61020351223541",
        "json": "e6030579599728284bdb57c22b68c52b78e88fc8f5fcb09580aa845e7308732b",
        "total_steps": 6,
        "files": ["toy2d_a.csv", "toy2d_a.json"],
    },
    "toy2d_b": {
        "csv": "c64430d45c934dafac70436bb3a124b7feeb6771c7c8db28083018cf45668efb",
        "json": "a65dfe4a517e1521d2cc643a7e791cc33de40ed712761be3c4e81ceb38808773",
        "total_steps": 6,
        "files": ["toy2d_b.csv", "toy2d_b.json"],
    },
    "gauss1d": {
        "csv": "31ef8ceaf469932b9e8bc71de4712a612cff5bb1ac9d8059675fd2822268bada",
        "json": "428f7a96138ddd51aa2ee2855a743e1c40ae5010a9316b5f8ce93c25e1a078a6",
        "total_steps": 12,
        "files": ["gauss1d.csv", "gauss1d.json"],
    },
    "train_restore": {
        "csv": "16688dfeeed338fb5999d9e097b0d3c2291e2ac3fc6219594ec48ce7dd958b7a",
        "json": "d5ec859feb1e39e97096d130e55fa65c912df6165b4dc778360caf1c840bc086",
        "total_steps": 45,
        "files": ["checkpoint.bin", "train_restore.csv", "train_restore.json"],
    },
    "generate_from_noise": {
        "csv": "06e836696b7149730d015ab7cb18e1ad454a1a69875f6f737b0807adbbfc6b60",
        "json": "2e78f01195713221f1daacbf7ba7c8f7d5bad69a2ca0f296243e21c1b4e026c9",
        "total_steps": 8,
        "files": ["generate_from_noise.csv", "generate_from_noise.json"],
    },
    "sweep_steps": {
        "csv": "f725a5b8ce577ce7a6e784462f8ac2817c7f3e9abc5cdd4a08cc5e7e7912de30",
        "json": "73d9eb044ef00c814954ccb34806ed9cbfee170d3029b16589af93df3d2abc9f",
        "total_steps": 13,
        "files": ["sweep_steps.csv", "sweep_steps.json"],
    },
    "sweep_pt": {
        "csv": "5ac0939c35d6bdc321e97c199a8af5a765f72c16a9007a460f76af79a87e2c81",
        "json": "31055d7af0234e39bf32399084f927fca5e2d1b988e9314f0167d6f094a0bdab",
        "total_steps": 90,
        "files": ["checkpoint_bias_t1.bin", "checkpoint_linear_0.bin",
                  "sweep_pt.csv", "sweep_pt.json"],
    },
    "sweep_noise": {
        "csv": "b8792ddf1f1b044f8d4c2ba84403679597e08b1a40dd6680526fa0d855cc38c8",
        "json": "06d296ef3d77018f7cc5887a4e1e18138b37c603ac3b2d6c4e1fd6db0aec9257",
        "total_steps": 30,
        "files": ["sweep_noise.csv", "sweep_noise.json"],
    },
    "sampler_compare": {
        "csv": "5c463e91d551ff835479aa4769b541d46cf81e8e26bf28cdddb3684e5b68cd80",
        "json": "bc8b815f4785acfaeedfe30cf313812817f10fefe227750b2e948d02159568af",
        "total_steps": 15,
        "files": ["sampler_compare.csv", "sampler_compare.json"],
    },
    "sampler_compare_trained": {
        "csv": "3fa19ad9f24a9c7bfb66845096c51f69f17fb4344d7e8aab6adfaa2a035991ad",
        "json": "b2044e50968bdf3f20747ae9f816a7e952c4cbdd427b8337fd43a6011e91a5b9",
        "total_steps": 55,
        "files": ["sampler_compare.csv", "sampler_compare.json"],
    },
    "gauss1d_trajectory": {
        "csv": "31ef8ceaf469932b9e8bc71de4712a612cff5bb1ac9d8059675fd2822268bada",
        "json": "ae3418401672390431707093864024c3dc7f43dfe8361cc7aa5e03d75ddbea9f",
        "total_steps": 12,
        "files": ["gauss1d.csv", "gauss1d.json", "gauss1d_trajectory.csv"],
        "trajectory": "0aa489772481441215c845964526823bc1c3587de66503861a117299b3b6269b",
    },
    "train_restore_linear_a": {
        "csv": "980ba583efb7281b7339a028d098c665c73ca1ccc2f5fa26f8fd4bf8fea80e03",
        "json": "a9b7d83196f6c0c3e276196ff74bb50cb7c578d6b4320aec6666a8af5547e159",
        "total_steps": 45,
        "files": ["checkpoint.bin", "train_restore.csv", "train_restore.json"],
    },
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_pinned_digests(name, jobs, tmp_path):
    assert report_digests(_case(name), jobs, tmp_path) == GOLDEN[name]
