"""Command line front end for the check suites.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage
error, 3 the report could not be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .suites import SUITE_NAMES, SuiteConfig, describe, render_text, run_suite


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qubitbench",
        description="Run numerical consistency suites for encoded-qubit constructions.",
    )
    parser.add_argument("--suite", choices=SUITE_NAMES, default="all",
                        help="which suite to run (default: all)")
    parser.add_argument("--tol", type=float, default=1e-9, metavar="EPS",
                        help="pass threshold on each max deviation (default: 1e-9)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for all randomized checks (default: 0)")
    parser.add_argument("--trials", type=int, default=100,
                        help="random trials per invariance check; 0 drops the five "
                             "randomized invariance checks, and the checks that draw "
                             "max(1, trials // 10) samples still draw one (default: 100)")
    parser.add_argument("--cutoff", type=int, default=2,
                        help="Fock-space occupation cutoff per mode (default: 2)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--describe", action="store_true",
                        help="print what each check family verifies, then exit")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; preserve both.
        return int(exc.code or 0)

    if args.describe:
        sys.stdout.write(describe(args.suite))
        return 0

    try:
        config = SuiteConfig(
            suite=args.suite,
            tolerance=args.tol,
            seed=args.seed,
            trials=args.trials,
            cutoff=args.cutoff,
        )
    except ValueError as exc:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 2

    doc = run_suite(config)
    if args.format == "json":
        rendered = json.dumps(doc, indent=2, sort_keys=False) + "\n"
    else:
        rendered = render_text(doc)

    if args.out is None:
        sys.stdout.write(rendered)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            sys.stderr.write(f"{parser.prog}: error: cannot write report: {exc}\n")
            return 3

    return 0 if doc["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
