"""Command-line front end for the experiment harness."""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import WORKERS_MAX, check_consistency_conditions
from .harness import (SUITE_NAMES, ConfigValidationError,
                      load_experiment_config, run_experiment, run_suite)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for trial-level parallelism")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ditherfield",
        description="Field reconstruction from 1-bit dithered sensors: "
                    "run verification experiments and suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to an experiment JSON document")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    _add_common(p_run)

    p_suite = sub.add_parser("suite", help="run a named verification suite")
    p_suite.add_argument("name", choices=SUITE_NAMES)
    _add_common(p_suite)

    p_check = sub.add_parser("check-conditions",
                             help="evaluate the distortion-consistency conditions "
                                  "for a config's schedule/deployment")
    p_check.add_argument("config")

    args = parser.parse_args(argv)

    if args.command in ("run", "suite") and not 1 <= args.workers <= WORKERS_MAX:
        print(f"{args.command}: --workers must be in [1, {WORKERS_MAX}]", file=sys.stderr)
        return 2  # before any run starts or any file is written

    if args.command in ("run", "check-conditions"):
        try:
            config = load_experiment_config(args.config,
                                            seed_override=getattr(args, "seed", None))
        except (ConfigValidationError, OSError, json.JSONDecodeError) as exc:
            # exit 1 is a FAIL verdict; a config that cannot run is a usage error
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 2

    if args.command == "run":
        outcome = run_experiment(config, args.out, workers=args.workers)
        print(f"{config.experiment_id}: {outcome.status}")
        print(outcome.detail)
        for path in outcome.artifacts:
            print(f"wrote {path}")
        return 0 if outcome.passed else 1

    if args.command == "suite":
        result = run_suite(args.name, args.out, workers=args.workers)
        for row in result.rows:
            print(row.line)
        print(f"suite {result.suite}: {'PASS' if result.all_pass else 'FAIL'}")
        return 0 if result.all_pass else 1

    if args.command == "check-conditions":
        report = check_consistency_conditions(config.schedule, config.deployment, config.n_grid)
        print(f"truncation grows: {'ok' if report.truncation_ok else 'FAIL'} "
              f"(m: {report.m_values[0]} -> {report.m_values[-1]})")
        print(f"deployment floor positive: "
              f"{'ok' if report.infimum_positive else 'FAIL'} "
              f"(infimum {report.infimum})")
        print(f"variance share vanishes: "
              f"{'ok' if report.variance_ok else 'FAIL'} "
              f"(values {[f'{v:.3e}' for v in report.variance_condition_values]})")
        print(f"overall: {'PASS' if report.all_pass else 'FAIL'}")
        return 0 if report.all_pass else 1

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
