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
from .harness import build_config, run_experiment, write_reports
from .suites import run_property_suite


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file (key = value sections)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--reps", type=int, help="replications per (method, n)")
    parser.add_argument("--n", help="comma-separated sample sizes")
    parser.add_argument("--methods", help="comma-separated method names")
    parser.add_argument("--workers", type=int, help="parallel worker cap")


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="fdeval", description="Distributional off-policy evaluation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_flags(sub.add_parser("run-lqr", help="run the lqr experiment sweep"))
    tabular = sub.add_parser("run-tabular", help="run the tabular experiment sweep")
    _add_run_flags(tabular)
    tabular.add_argument("--states", type=int, help="states of each random MDP")
    tabular.add_argument("--actions", type=int, help="actions per state")
    tabular.add_argument("--gamma", type=float, help="discount factor in (0, 1)")
    check = sub.add_parser("check", help="run a property suite")
    check.add_argument("--suite", required=True, help="suite name")
    check.add_argument("--seed", type=int, default=0)
    sub.add_parser("truth-lqr", help="print the ground-truth parameters as JSON")
    return parser.parse_args(argv)


def _run_sweep(args, experiment: str) -> int:
    instance = {}
    if experiment == "tabular":
        instance = dict(
            tabular_states=args.states, tabular_actions=args.actions, tabular_gamma=args.gamma
        )
    config = build_config(
        file_path=args.config,
        experiment=experiment,
        master_seed=args.seed,
        output_path=args.out,
        reps=args.reps,
        n_list=tuple(int(v) for v in args.n.split(",")) if args.n else None,
        methods=tuple(m.strip() for m in args.methods.split(",")) if args.methods else None,
        workers=args.workers,
        **instance,
    )
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
