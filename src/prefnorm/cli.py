"""Command line front end for campaign execution and rank tables.

Exit codes: 0 on success, 1 on a configuration error, 2 on a runtime
failure.
"""
from __future__ import annotations

import argparse
import logging
import sys

from .harness import (ConfigError, build_cell_roi, execute_campaign,
                      load_config, rank_from_results, write_results)
from .problems import SUITES, problem_names

# IGD+-C read off fewer ROI points than this measures a few points, not a
# region; validate flags such instances but still accepts the config
ROI_SIZE_FLOOR = 100


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefnorm",
        description="Preference-based optimization campaigns with "
                    "run-time normalization.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a campaign config")
    run.add_argument("--config", required=True, help="YAML or JSON config")
    run.add_argument("--out", default="results", help="output directory "
                     "(default: results)")
    run.add_argument("--workers", type=int, default=1,
                     help="parallel worker processes (default: 1)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config base seed")
    run.set_defaults(func=_cmd_run)

    rank = sub.add_parser("rank", help="Friedman average ranks from a "
                                       "results directory")
    rank.add_argument("--in", dest="in_dir", required=True,
                      help="campaign output directory")
    rank.add_argument("--suite", required=True, choices=sorted(SUITES),
                      help="problem family to rank over")
    rank.add_argument("--checkpoint", type=int, required=True,
                      help="evaluation checkpoint to rank at")
    rank.set_defaults(func=_cmd_rank)

    listing = sub.add_parser("list-problems",
                             help="print available problem names")
    listing.set_defaults(func=_cmd_list_problems)

    validate = sub.add_parser("validate", help="check a config without "
                                               "running it and print each "
                                               "instance's ROI size")
    validate.add_argument("--config", required=True,
                          help="YAML or JSON config")
    validate.set_defaults(func=_cmd_validate)
    return parser


def _cmd_run(args) -> int:
    overrides = {"seed": args.seed} if args.seed is not None else None
    config = load_config(args.config, overrides)
    traces = execute_campaign(config, args.workers)
    out = write_results(traces, config, args.out)
    print(f"wrote {len(traces)} runs to {out}")
    return 0


def _cmd_rank(args) -> int:
    ranks = rank_from_results(args.in_dir, args.suite, args.checkpoint)
    print("treatment,avg_rank")
    for treatment, avg in sorted(ranks.items(), key=lambda kv: kv[1]):
        print(f"{treatment},{avg!r}")
    return 0


def _cmd_list_problems(args) -> int:
    for name in problem_names():
        print(name)
    return 0


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    cells = (len(config.problems) * len(config.algorithms)
             * len(config.normalizations))
    print(f"ok: {cells} cells x {config.runs} runs, "
          f"{config.budget} evaluations each")
    for name, m in config.problems:
        size = build_cell_roi(config, name, m)[1].points.shape[0]
        flag = f" (under {ROI_SIZE_FLOOR})" if size < ROI_SIZE_FLOOR else ""
        print(f"roi {name}:{m}: {size} points{flag}")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error:\n{exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 2


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
