"""Command line front end: run a scenario file and emit a report.

Exit codes: 0 success, 1 at least one task failed, 2 the scenario could not
be loaded or validated.
"""
from __future__ import annotations

import argparse
import sys

from .errors import ScenarioError
from .runner import run_scenario
from .scenario import load_scenario
from .tolerances import Tolerances


def tolerance(text: str) -> float:
    """A tolerance flag's value: a finite number greater than 0."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite number greater than 0, got {text!r}")
    return value


def seed(text: str) -> int:
    """The --seed flag's value: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relfock",
        description="Run a relfock scenario file and emit a report.",
    )
    parser.add_argument("scenario", help="path to a scenario file")
    parser.add_argument("--output", "-o", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("text", "machine"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--seed", type=seed, default=None,
                        help="default seed for sample tasks without one")
    for kind, what in (("norm", "unit-norm/trace"), ("herm", "Hermiticity/isometry"),
                       ("ssr", "superselection off-block")):
        parser.add_argument(f"--tol-{kind}", type=tolerance, default=None,
                            help=f"override the {what} tolerance")
    parser.add_argument("--validate-only", action="store_true",
                        help="load and validate the scenario, run nothing")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: getattr(args, f"tol_{k}") for k in ("norm", "herm", "ssr")}
    tol = Tolerances().with_overrides(**{k: v for k, v in overrides.items() if v is not None})

    try:
        scenario = load_scenario(args.scenario, tol)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.validate_only:
        print(f"ok: {args.scenario} ({len(scenario.tasks)} tasks)")
        return 0

    report = run_scenario(scenario, tol, seed=args.seed)
    payload = report.to_machine_bytes() if args.format == "machine" \
        else report.to_text().encode("utf-8")
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return 1 if report.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
