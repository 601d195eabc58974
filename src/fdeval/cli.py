"""Command-line interface.

Subcommands: run-lqr, run-tabular, check --suite <name>, truth-lqr.
Exit codes: 0 success, 1 invalid configuration, 2 property-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .envs import LQREnv, lqr_true_params
from .errors import FdevalError
from .harness import SETTINGS, build_config, parse_setting, run_experiment, write_reports
from .suites import run_property_suite


def _add_run_flags(parser: argparse.ArgumentParser, experiment: str) -> None:
    parser.add_argument("--config", help="config file (key = value sections)")
    for name, setting in SETTINGS.items():
        if setting.flag and setting.reader in (None, experiment):
            parser.add_argument(
                f"--{setting.key}", dest=name, metavar=setting.key.upper(), help=setting.flag
            )


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="fdeval", description="Distributional off-policy evaluation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for experiment in ("lqr", "tabular"):
        _add_run_flags(
            sub.add_parser(f"run-{experiment}", help=f"run the {experiment} experiment sweep"),
            experiment,
        )
    check = sub.add_parser("check", help="run a property suite")
    check.add_argument("--suite", required=True, help="suite name")
    check.add_argument("--seed", type=int, default=0)
    sub.add_parser("truth-lqr", help="print the ground-truth parameters as JSON")
    return parser.parse_args(argv)


def _run_sweep(args, experiment: str) -> int:
    flags = {
        name: parse_setting(setting.parse, getattr(args, name), f"--{setting.key}")
        for name, setting in SETTINGS.items()
        if getattr(args, name, None) is not None
    }
    config = build_config(args.config, experiment=experiment, **flags)
    reports = run_experiment(config)
    path = write_reports(reports, config)
    print(f"wrote {len(reports)} rows to {path}")
    return 0


def _check(args) -> int:
    report = run_property_suite(args.suite, seed=args.seed)
    print(json.dumps(report, indent=2, default=str))
    return 0 if report["passed"] else 2


def _truth_lqr() -> int:
    env = LQREnv.default()
    theta = lqr_true_params(env)
    print(
        json.dumps(
            {
                "m1": theta.m1.tolist(),
                "m2": theta.m2.tolist(),
                "m3": theta.m3.tolist(),
                "return_variance": env.return_variance,
            },
            indent=2,
        )
    )
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.command == "run-lqr":
            return _run_sweep(args, "lqr")
        if args.command == "run-tabular":
            return _run_sweep(args, "tabular")
        if args.command == "check":
            return _check(args)
        return _truth_lqr()
    except FdevalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
