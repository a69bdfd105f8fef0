"""Benchmark of the restep lab: one workload, one client, closed loop.

Run from the root of a checkout (the directory holding ``src/restep``):

    python3 perfbench/run.py --workload train_mlp --seed 3 --seconds 30 --trace 0

The workloads are defined in ``workloads.py``.  A run drives the public
API, ``restep.run_experiment(cfg, jobs=1, write=True)``, one experiment at
a time in this process, with the BLAS thread count fixed to one.  It

1. runs one warm-up pass at the golden seed, whose CSVs must match the
   digests pinned in ``reference.json``;
2. repeats passes at ``--seed`` for ``--seconds`` seconds, checking every
   report (see ``workloads.ReportChecker``) and timing each experiment
   against the ``SpeedProbe`` run just before and after it;
3. with ``--trace 0``, times set-up after every second pass: a fresh
   interpreter until ``import restep`` has finished and the workload's
   configs are resolved;
4. prints the environment, a table of the metrics, and as its last line
   one JSON object: ``correct``, ``attempted`` and ``failed`` count
   experiments, ``metrics`` holds the end-to-end metrics with
   ``--trace 0`` and the per-layer metrics with ``--trace 1``.

With ``--trace 1`` the passes alternate between untraced and traced (see
``tracer.py``); per-layer values are medians over the traced passes, and
``trace.overhead_frac`` compares the two kinds of pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer, install, pass_metrics, span_bias  # noqa: E402

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # fewest set-up samples an untraced run takes
MIN_PASSES = 3  # of each kind of pass a run needs
MAX_PASSES = 500  # ends a run whose experiments fail at once
OUT_DIR = ".perfbench_out"

_SETUP_SCRIPT = (
    "import sys\n"
    "import restep, workloads\n"
    "for cfg in workloads.configs(sys.argv[1], 0, 'unused'):\n"
    "    restep.resolve_config(cfg)\n"
    "print('ready', flush=True)\n"
)


def measure_setup(src: Path, workload: str) -> float:
    """Seconds from spawning an interpreter until its set-up is done."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _SETUP_SCRIPT, workload],
        stdout=subprocess.PIPE, env=env, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    if line != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up script failed with exit code {proc.returncode}")
    return elapsed


def run_pass(run_experiment, experiments, checker, seed, probe) -> tuple:
    """Run and check each (label, config).

    Returns (seconds, seconds at the probe's reference speed, failures).
    Only the ``run_experiment`` calls are timed, each against the probe
    runs just before and after it.  ``failures`` holds one message per
    experiment that raised or whose report failed a check.
    """
    wall = scaled = 0.0
    failures = []
    speed = probe.seconds()
    for label, cfg in experiments:
        start = time.perf_counter()
        try:
            report = run_experiment(cfg, jobs=1, write=True)
            elapsed = time.perf_counter() - start
            csv_path = next(p for p in report.output_paths if p.endswith(".csv"))
            csv_bytes = Path(csv_path).read_bytes()
        except Exception as err:  # a failing experiment is counted, not fatal
            failures.append(f"{label}: raised {type(err).__name__}: {err}")
            continue
        after = probe.seconds()
        wall += elapsed
        scaled += elapsed * 2.0 * probe.reference_s / (speed + after)
        speed = after
        errors = checker.errors(label, cfg["kind"], seed, csv_bytes)
        if errors:
            failures.append(f"{label}: " + "; ".join(errors))
    return wall, scaled, failures


def labelled(workload: str, seed: int, out_dir: Path) -> list:
    return [(f"{workload}/{cfg['kind']}", cfg)
            for cfg in workloads.configs(workload, seed, str(out_dir))]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class SpeedProbe:
    """A fixed piece of numpy work, timed around each measurement.

    On a shared machine the same pass runs up to a third faster or slower
    from one stretch of tens of seconds to the next, with the process on
    the CPU throughout; the probe slows down with it.  An experiment's
    time divided by the mean of the probe times just before and after it
    varies several times less across runs than the time itself.
    ``reference_s`` (reference.json) turns that ratio back into seconds
    at the probe's reference speed.
    """

    def __init__(self, reference_s: float):
        import numpy

        rng = numpy.random.default_rng(0)
        self.reference_s = reference_s
        self._activations = rng.standard_normal((256, 129))
        self._weights = rng.standard_normal((128, 129))
        self._rows = list(rng.standard_normal((3000, 2)))
        self._points = rng.standard_normal((1000, 4))
        self._centres = rng.standard_normal((1000, 1))
        self._numpy = numpy

    def seconds(self) -> float:
        """One pass over the three kinds of work the workloads do: matrix
        products (the MLP), small-array calls from Python (the pair
        stream, the sampler loops) and elementwise exponentials over a
        1000-row batch (the mixture oracle)."""
        np = self._numpy
        start = time.perf_counter()
        for _ in range(40):
            np.tanh(self._activations @ self._weights.T)
        for row in self._rows:
            np.stack([row, row])
        for _ in range(100):
            logits = -0.5 * (self._points - self._centres) ** 2
            weights = np.exp(logits - logits.max(axis=1, keepdims=True))
            (weights / weights.sum(axis=1, keepdims=True)).sum(axis=0)
        return time.perf_counter() - start


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if "_us_" in name:
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def measure(harness, workload: str, seed: int, seconds: float, trace: bool,
            golden: dict, probe: SpeedProbe, out_dir: Path, setup=None) -> dict:
    """Warm-up pass, then the timed loop; returns the raw measurements.

    ``walls`` maps traced (True) or not (False) to a list of
    (pass seconds, pass seconds at the probe's reference speed).  When
    given, ``setup()`` is timed after every second untraced pass, so its
    samples spread over the run like the passes do.
    """
    checker = workloads.ReportChecker(golden)
    experiments = labelled(workload, seed, out_dir)
    failures = []
    attempted = 0

    # The warm-up pins the golden CSVs and lets lazy set-up finish untimed.
    warmup = labelled(workload, workloads.GOLDEN_SEED, out_dir)
    failures += run_pass(harness.run_experiment, warmup, checker, workloads.GOLDEN_SEED, probe)[2]
    attempted += len(warmup)

    tracer = Tracer(bias=span_bias() if trace else 0.0)
    traced_run = tracer.wrap("harness.run_experiment", harness.run_experiment)
    walls = {False: [], True: []}
    setups = []
    layers = []
    trace_errors = []
    required = workloads.REQUIRED_LAYERS[workload]
    kinds = (False, True) if trace else (False,)
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MAX_PASSES:
        traced = kinds[index % len(kinds)]
        index += 1
        if traced:
            tracer.reset()
            uninstall = install(tracer)
            try:
                wall, scaled, errors = run_pass(traced_run, experiments, checker, seed, probe)
            finally:
                uninstall()
            layer = pass_metrics(tracer)
            for name, kept in tracer.durations.items():
                layer[f"{name}_call_us_p50"] = 1e6 * percentile(kept, 0.50) if kept else 0.0
                layer[f"{name}_call_us_p99"] = 1e6 * percentile(kept, 0.99) if kept else 0.0
            layers.append(layer)
            trace_errors += [f"layer {name} recorded no calls"
                             for name in required if tracer.calls[name] == 0]
        else:
            wall, scaled, errors = run_pass(
                harness.run_experiment, experiments, checker, seed, probe)
        walls[traced].append((wall, scaled))
        failures += errors
        attempted += len(experiments)
        if setup is not None and not traced and len(walls[False]) % 2 == 1:
            setups.append(setup())
        if (time.perf_counter() >= deadline
                and all(len(walls[k]) >= MIN_PASSES for k in kinds)
                and (setup is None or len(setups) >= SETUP_REPEATS)):
            break
    return {
        "attempted": attempted,
        "failures": failures,
        "trace_errors": sorted(set(trace_errors)),
        "walls": walls,
        "setup": setups,
        "layers": layers,
    }


def end_to_end(raw: dict, workload: str) -> tuple:
    """(metrics, extra table lines) of an untraced run."""
    import restep

    raw_walls = [w for w, _ in raw["walls"][False]]
    walls = [w for _, w in raw["walls"][False]]
    wall = statistics.median(walls)
    row_steps = train_steps = 0
    for cfg in workloads.configs(workload, 0, "unused"):
        rows, steps = workloads.work(restep.resolve_config(cfg))
        row_steps += rows
        train_steps += steps
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(raw["setup"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "row_steps_per_s": row_steps / wall,
    }
    notes = [
        f"wall_s: median of {len(walls)} passes at reference speed (no percentile "
        f"above it has ten passes beyond it); as timed: "
        f"median {statistics.median(raw_walls):.4f}, min {min(raw_walls):.4f}, "
        f"max {max(raw_walls):.4f}; median speed factor "
        f"{statistics.median(w / r for r, w in raw['walls'][False]):.4f}",
        f"setup_s: median of {len(raw['setup'])} fresh interpreters, as timed",
    ]
    if train_steps:
        notes.append(f"train_steps_per_s: {train_steps / wall:.2f} 1/s")
    failed = len(raw["failures"])
    notes.append(f"failed_frac: {failed / raw['attempted']:.4g} "
                 f"({failed} of {raw['attempted']} experiments)")
    return metrics, notes


def per_layer(raw: dict) -> dict:
    # median_low keeps counts whole: it is always one of the passes' values
    metrics = {name: statistics.median_low(layer[name] for layer in raw["layers"])
               for name in raw["layers"][0]}
    untraced = statistics.median(w for _, w in raw["walls"][False])
    traced = statistics.median(w for _, w in raw["walls"][True])
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "row_steps_per_s": "1/s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "restep" / "__init__.py").is_file():
        print(f"error: {src / 'restep'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    probe = SpeedProbe(reference["speed_probe_s"])
    sys.path.insert(0, str(src))
    import restep

    if Path(restep.__file__).resolve().parent != (src / "restep").resolve():
        print(f"error: imported restep from {restep.__file__}, not {src}", file=sys.stderr)
        return 2
    out_root = root / OUT_DIR
    try:
        raw = measure(restep.harness, args.workload, args.seed, args.seconds,
                      bool(args.trace), reference["golden_csv_sha256"], probe,
                      out_root / args.workload,
                      setup=None if args.trace else lambda: measure_setup(src, args.workload))
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    print("environment " + json.dumps(environment(args.workload, args.seed)))
    for message in raw["failures"] + raw["trace_errors"]:
        print(f"FAILED {message}")
    if args.trace:
        values = per_layer(raw)
        units = {name: unit_of(name) for name in values}
        notes = [f"per-layer values: median of {len(raw['layers'])} traced passes"]
    else:
        values, notes = end_to_end(raw, args.workload)
        units = UNITS
    for name, value in values.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    failed = len(raw["failures"])
    print(json.dumps({
        "correct": failed == 0 and not raw["trace_errors"],
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
