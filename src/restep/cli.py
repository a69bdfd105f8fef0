"""Command-line entry point.

Subcommands map onto the experiment kinds: ``run`` executes any config
file, while ``sweep-samplers``, ``sweep-pt``, ``sweep-steps``, and
``train`` run their fixed kinds with built-in defaults (plus an optional
config file for overrides).  Exit status is 0 on success, 2 for config or
usage errors, and 1 for I/O failures while writing results.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ConfigError, _require, default_config, load_config, run_experiment

# subcommand -> (the kind it runs, None for any; its help text)
_SUBCOMMANDS = {
    "run": (None, "run the experiment described by a config file"),
    "sweep-samplers": ("sampler_compare", "compare the three samplers across a step grid"),
    "sweep-pt": ("sweep_pt", "train one regressor per time distribution"),
    "sweep-steps": ("sweep_steps", "sweep the sampler step count with the exact oracle"),
    "train": ("train_restore", "train a regressor and restore a held-out batch with it"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restep",
        description="Run restoration experiments and write CSV/JSON reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--config", default=None,
            help="JSON config file" + (" (required)" if name == "run" else ""),
        )
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument(
            "--format", default="csv,json",
            help="comma-separated output formats (csv, json)",
        )
        p.add_argument(
            "--jobs", type=int, default=1,
            help="independent grid cells to run in parallel",
        )
    return parser


def _resolve_args(args) -> tuple:
    fixed_kind, _ = _SUBCOMMANDS[args.command]
    if args.config is not None:
        raw = load_config(args.config)
    elif fixed_kind is not None:
        raw = default_config(fixed_kind)
    else:
        raise ConfigError("config: the run subcommand requires --config")
    if fixed_kind is not None:
        _require(raw.get("kind", fixed_kind) == fixed_kind, "kind", f"config says "
                 f"{raw.get('kind')!r} but the {args.command} subcommand runs {fixed_kind!r}")
        raw["kind"] = fixed_kind
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out_dir"] = args.out
    formats = tuple(s for s in (p.strip() for p in args.format.split(",")) if s)
    return raw, formats, args.jobs


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        raw, formats, jobs = _resolve_args(args)
        report = run_experiment(raw, jobs=jobs, write=True, formats=formats)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"{report.kind}: {len(report.rows)} rows, "
          f"{report.total_steps} steps, {report.wall_clock_s:.2f}s")
    for path in report.output_paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
