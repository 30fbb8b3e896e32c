"""Command-line interface.

    iabsim run <experiment> [--config FILE] [--seed N] [--trials N]
               [--ues N] [--rbs-per-ue N] [--slot-mode MODE] [--cells N]
               [--policy NAME] --out PATH
    iabsim summarize <csv>

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys

from .config import DOMAINS, ConfigError, load_config
from .experiments import EXPERIMENT_NAMES, ExperimentSpec, run_experiment, summarize


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iabsim",
        description="Monte-Carlo simulator of two-hop IAB uplink networks "
                    "with genetic-algorithm power control")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment and write CSV output")
    run_p.add_argument("experiment", choices=EXPERIMENT_NAMES)
    run_p.add_argument("--config", help="path to a key = value config file")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--trials", type=int)
    run_p.add_argument("--ues", type=int, dest="num_ues")
    run_p.add_argument("--rbs-per-ue", type=int, dest="rbs_per_ue")
    run_p.add_argument("--slot-mode", choices=DOMAINS["slot_mode"].choices,
                       dest="slot_mode")
    run_p.add_argument("--cells", type=int, choices=DOMAINS["num_cells"].choices,
                       dest="num_cells")
    run_p.add_argument("--policy", choices=DOMAINS["power_policy"].choices,
                       dest="power_policy")
    run_p.add_argument("--out", required=True, help="output CSV path")

    sum_p = sub.add_parser("summarize", help="headline statistics for a CSV")
    sum_p.add_argument("csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # bad usage is a validation error; --help is 0
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "run":
            overrides = {key: getattr(args, key)
                         for key in ("seed", "trials", "num_ues", "rbs_per_ue",
                                     "slot_mode", "num_cells", "power_policy")
                         if getattr(args, key) is not None}
            config = load_config(args.config, overrides)
            rbs_values = ((args.rbs_per_ue,) if args.rbs_per_ue is not None
                          else (2, 4))
            spec = ExperimentSpec(name=args.experiment, out=args.out,
                                  rbs_values=rbs_values)
            written = run_experiment(spec, config)
            for path in written:
                print(f"wrote {path}")
        else:
            print(summarize(args.csv))
        return 0
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
