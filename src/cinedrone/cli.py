"""Command-line entry point: run, validate and summarize scenarios."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import (ScenarioParseError, ScenarioValidationError,
                     load_scenario)
from .runlog import emit_outputs, summarize
from .scene import run_closed_loop


def _cmd_run(args: argparse.Namespace) -> int:
    for flag, value, least in (("--reps", args.reps, 1),
                               ("--seed", args.seed, 0)):
        if value is not None and value < least:
            print(f"{flag} must be >= {least}, got {value}", file=sys.stderr)
            return 2
    config = load_scenario(args.scenario)
    seeds = [args.seed] if args.seed is not None else list(config.seeds)
    if args.reps is not None:
        extra = [max(seeds) + 1 + i for i in range(args.reps)]
        seeds = (seeds + extra)[:args.reps]
    out_dir = Path(args.out)
    status = 0
    for seed in seeds:
        log = run_closed_loop(config, seed)
        paths = emit_outputs(log, out_dir)
        print(f"seed {seed}: {log.status}, {len(log.rows)} steps"
              f" -> {paths[0]}")
        if log.status != "completed":
            status = 1
    return status


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        config = load_scenario(args.scenario)
    except (ScenarioParseError, ScenarioValidationError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"{args.scenario}: OK ({config.name}, {len(config.targets)}"
          f" targets, {len(config.sequences)} sequences)")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    path = summarize(args.directory)
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cinedrone",
        description="Closed-loop cinematography simulator: a drone-mounted "
                    "camera planned by a receding-horizon controller over "
                    "pose, gimbal and lens parameters.")
    parser.add_argument("--verbose", action="store_true",
                        help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and emit CSV logs")
    run_p.add_argument("scenario", help="scenario JSON file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seeds with one seed")
    run_p.add_argument("--reps", type=int, default=None,
                       help="number of repetitions (seeds 0..reps-1 unless"
                            " the scenario lists enough seeds)")
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("scenario")
    val_p.set_defaults(func=_cmd_validate)

    sum_p = sub.add_parser("summarize",
                           help="aggregate run outputs in a directory")
    sum_p.add_argument("directory")
    sum_p.set_defaults(func=_cmd_summarize)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ScenarioParseError, ScenarioValidationError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
