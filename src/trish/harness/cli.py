"""Command-line interface.

Subcommands: ``run`` (experiment -> CSV traces), ``tune`` (grid search),
``verify`` (named verification suite), ``baseline-g`` (grid anchor
statistic).  Exit codes: 0 success/pass, 1 failure (a failed check, or
a run-time error such as a diverged run, whose message goes to stderr),
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from ..core import ConfigurationError
from ..optimizer import SolverSpec
from .config import build_inputs, load_config
from .experiment import run_experiment
from .grid import GridSpec, baseline_gradient_norm, build_grid, tune
from .suites import SUITES, verify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _cmd_run(args) -> int:
    doc = load_config(args.config)
    for path in run_experiment(doc, output_dir=args.output_dir):
        print(path)
    return EXIT_OK


def _cmd_baseline_g(args) -> int:
    doc = load_config(args.config)
    baseline = doc.get("baseline", {"iterations": doc["iterations"], "seed": doc["seeds"][0]})
    problem, x0, noise = build_inputs(doc)
    g = baseline_gradient_norm(problem, noise, baseline["iterations"], baseline["seed"], x0=x0)
    print(repr(g))
    return EXIT_OK


def _cmd_tune(args) -> int:
    doc = load_config(args.config)
    if "grid" not in doc or "baseline" not in doc:
        raise ConfigurationError("tune configs require 'grid' and 'baseline' sections")
    problem, x0, noise = build_inputs(doc)
    g = baseline_gradient_norm(problem, noise, doc["baseline"]["iterations"],
                               doc["baseline"]["seed"], x0=x0)
    grid = build_grid(g, GridSpec(**{key: tuple(v) for key, v in doc["grid"].items()}))
    result = tune(problem, doc["algorithm"], grid, doc["seeds"], doc["iterations"],
                  noise=noise, solver=SolverSpec(**doc.get("solver", {})), x0=x0)
    print(json.dumps({
        "baseline_g": g,
        "best": {"setting": result.best.setting, "mean_loss": result.best.mean_loss},
        "leaderboard": [
            {"setting": e.setting, "mean_loss": e.mean_loss}
            for e in result.leaderboard
        ],
    }, indent=2))
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify(args.suite, quick=args.quick)
    print(report.to_json())
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {report.suite}: {check.name}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trish",
        description="Stochastic trust-region experiments and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config, write CSV traces")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output-dir", default=None,
                       help="overrides config output_dir and $TRISH_OUTPUT_DIR")
    p_run.set_defaults(fn=_cmd_run)

    p_tune = sub.add_parser("tune", help="grid-search hyperparameters")
    p_tune.add_argument("--config", required=True)
    p_tune.set_defaults(fn=_cmd_tune)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_verify.add_argument("--quick", action="store_true",
                          help="smaller seed counts and horizons")
    p_verify.set_defaults(fn=_cmd_verify)

    p_base = sub.add_parser("baseline-g",
                            help="average stochastic-gradient norm of the baseline SG run")
    p_base.add_argument("--config", required=True)
    p_base.set_defaults(fn=_cmd_baseline_g)

    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:  # a run that diverged or a solver that failed
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
