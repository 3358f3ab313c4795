"""Command-line front end.

Subcommands: simulate, diagnose, constants, extension-check, isoperimetric.
The level-set energy audit is ``diagnose --checks energy_audit``.  Every
subcommand but constants takes --out <dir> and --format json|csv; simulate,
extension-check and isoperimetric also take --seed <u64>, and simulate
takes --config <path>.  The options of extension-check, isoperimetric and
``diagnose --side-length`` are passed to the harness only when given.  The
per-check pass/fail tags are colored when standard output is a terminal.
Exit status is 1 iff an enabled check fails, and 2 for unusable input (a bad
config, checkpoint, path or argument value, constants for which no rho or
delta exists, or a run stopped by the solver's CFL or blow-up guard),
reported as one ``error:`` line on stderr.  constants has no
check to fail: it prints the ledger and exits 0.
"""

import argparse
import os
import sys
from dataclasses import replace

from .constants import build_ledger
from .harness import (
    diagnose,
    extension_report,
    isoperimetric_report,
    load_config,
    simulate,
)
from .solver import BlowUpError, StabilityError


def _status_line(name, passed):
    tag = "PASS" if passed else "FAIL"
    if sys.stdout.isatty():
        color = "\033[32m" if passed else "\033[31m"
        tag = f"{color}{tag}\033[0m"
    return f"{tag} {name}"


def _emit_report(report, out_dir, fmt):
    for section in report.sections:
        print(_status_line(section["name"], section["passed"]))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "report.json")
        with open(path, "w") as fh:
            fh.write(report.to_json())
    if fmt == "json":
        print(report.to_json())
    else:
        print("section,passed")
        for section in report.sections:
            print(f"{section['name']},{int(section['passed'])}")
    return 0 if report.passed else 1


def _add_output(p, seed=False):
    """--out and --format, and --seed where the subcommand reads one."""
    if seed:
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override the seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser():
    parser = argparse.ArgumentParser(prog="sqgdiag")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured simulation")
    p.add_argument("--config", help="run configuration file (key = value)")
    _add_output(p, seed=True)

    p = sub.add_parser("diagnose", help="run diagnostics over checkpoints")
    _add_output(p)
    p.add_argument("checkpoints", nargs="*", help="checkpoint files")
    p.add_argument("--checks", default="l2_monotone,energy_audit",
                   help="comma-separated diagnostic toggles (may be empty)")
    p.add_argument("--side-length", type=float, default=argparse.SUPPRESS)

    p = sub.add_parser("constants", help="emit the constants ledger as JSON")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--M", type=float, default=1.0)

    p = sub.add_parser("extension-check", help="verify the weighted Neumann trace")
    _add_output(p, seed=True)
    p.add_argument("--epsilons", default=argparse.SUPPRESS, help="comma-separated")
    p.add_argument("--n", type=int, default=argparse.SUPPRESS)

    p = sub.add_parser("isoperimetric", help="weighted isoperimetric family sweep")
    _add_output(p, seed=True)
    p.add_argument("--count", type=int, default=argparse.SUPPRESS)
    p.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    return parser


def _given(args, *names):
    """The named options the user gave, as keyword arguments."""
    return {name: getattr(args, name) for name in names if name in args}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError, StabilityError, BlowUpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args):
    if args.command == "simulate":
        if not args.config:
            raise ValueError("simulate requires --config")
        config = load_config(args.config)
        if "seed" in args:
            config = replace(config, seed=args.seed)
        if args.out:
            config = replace(config, output_dir=args.out)
        paths, report = simulate(config)
        print(_status_line("simulation", True))
        if args.format == "json":
            print(report.to_json())
        else:
            print("checkpoints")
            for p in paths:
                print(p)
        return 0

    if args.command == "diagnose":
        toggles = [t for t in args.checks.split(",") if t]
        report = diagnose(args.checkpoints, toggles, **_given(args, "side_length"))
        return _emit_report(report, args.out, args.format)

    if args.command == "constants":
        ledger = build_ledger(args.L, args.C, args.alpha, args.eta, args.M)
        print(ledger.to_json())
        return 0

    if args.command == "extension-check":
        given = _given(args, "epsilons", "n", "seed")
        if "epsilons" in given:
            given["epsilons"] = tuple(float(v) for v in given["epsilons"].split(","))
        report = extension_report(**given)
        return _emit_report(report, args.out, args.format)

    if args.command == "isoperimetric":
        report = isoperimetric_report(**_given(args, "count", "samples", "seed"))
        return _emit_report(report, args.out, args.format)

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
