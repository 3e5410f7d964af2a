"""Command-line scenario runner.

Subcommands map to correctors: ``stabilize`` (representation correction),
``cocycle``, ``lift``, ``rokhlin``, ``graded``, ``estimate``, and ``suite``
(the full battery).  Each accepts ``--scenario FILE`` to load a JSON
scenario (falling back to a built-in default), plus ``--out``, ``--seed``,
``--trials`` and ``--tolerance`` overrides.  The default output directory
is taken from the EQUIFIX_OUT environment variable when set.  Exit code is
0 iff every checked bound passed; violated bounds are named to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .scenarios import (Scenario, ScenarioError, run_scenario, suite_scenarios,
                        validate_scenario)

SUBCOMMAND_KINDS = {
    "stabilize": "rep",
    "cocycle": "cocycle",
    "lift": "lift",
    "rokhlin": "rokhlin",
    "graded": "graded",
    "estimate": "integral_estimate",
}

DEFAULTS = {
    "rep": {"kind": "rep", "seed": 0, "group": {"kind": "cyclic", "params": 4},
            "dimension": 4, "magnitude": 0.01, "trials": 25},
    "cocycle": {"kind": "cocycle", "seed": 0,
                "group": {"kind": "cyclic", "params": 3},
                "dimension": 4, "magnitude": 0.01, "trials": 25},
    "lift": {"kind": "lift", "seed": 0, "group": {"kind": "cyclic", "params": 3},
             "source": {"model": "translation", "order": 3},
             "tower": {"levels": 8, "base": 0.2, "ratio": 0.2}, "trials": 10},
    "rokhlin": {"kind": "rokhlin", "seed": 0,
                "group": {"kind": "cyclic", "params": 3},
                "dimension": 6, "magnitude": 0.02, "trials": 20},
    "graded": {"kind": "graded", "seed": 0,
               "group": {"kind": "cyclic", "params": 4},
               "magnitude": 0.002, "trials": 20},
    "integral_estimate": {"kind": "integral_estimate", "seed": 0,
                          "group": {"kind": "cyclic", "params": 5},
                          "dimension": 4, "magnitude": 0.3, "trials": 25},
}


def _add_common(parser):
    parser.add_argument("--scenario", type=Path, default=None,
                        help="JSON scenario file")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: $EQUIFIX_OUT or ./out)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--tolerance", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equifix",
        description="Correct approximate equivariant structures on matrix "
                    "algebras to exact ones and certify the error bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMAND_KINDS:
        p = sub.add_parser(name, help=f"run {SUBCOMMAND_KINDS[name]} scenarios")
        _add_common(p)
    p = sub.add_parser("suite", help="run the full scenario battery")
    _add_common(p)
    return parser


def _default_out(args) -> Path:
    if args.out is not None:
        return args.out
    env = os.environ.get("EQUIFIX_OUT")
    return Path(env) if env else Path("out")


def _load_scenario(args, kind: str) -> Scenario:
    if args.scenario is not None:
        data = json.loads(Path(args.scenario).read_text())
        validate_scenario(data)
        if data["kind"] != kind:
            raise ScenarioError(
                f"scenario kind {data['kind']!r} does not match subcommand "
                f"({kind!r} expected)")
    else:
        data = dict(DEFAULTS[kind])
    if args.seed is not None:
        data["seed"] = args.seed
    if args.trials is not None:
        data["trials"] = args.trials
    if args.tolerance is not None:
        data["tolerance"] = args.tolerance
    return Scenario.from_dict(data)


def suite_label(scenario: Scenario) -> str:
    """Output directory of a suite entry: its kind, with ``_tower`` for the
    tower-pinned rep entry, so the two rep entries keep separate reports."""
    if scenario.kind == "rep" and scenario.tower:
        return "rep_tower"
    return scenario.kind


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = _default_out(args)
    try:
        if args.command == "suite":
            scenarios = suite_scenarios(seed=args.seed or 0, trials=args.trials)
            ok = True
            for sc in scenarios:
                if args.tolerance is not None:
                    sc.tolerance = args.tolerance
                label = suite_label(sc)
                report = run_scenario(sc, out / label)
                status = "ok" if report.all_passed else "FAIL"
                print(f"{label:<18} trials={sc.trials:<4} {status}")
                for line in report.failures:
                    print(f"  {label}: {line}", file=sys.stderr)
                ok = ok and report.all_passed
            return 0 if ok else 1
        kind = SUBCOMMAND_KINDS[args.command]
        scenario = _load_scenario(args, kind)
        report = run_scenario(scenario, out)
        print(f"{scenario.kind}: {len(report.trials)} trials, "
              f"{'all bounds passed' if report.all_passed else 'BOUND VIOLATIONS'}")
        for line in report.failures:
            print(line, file=sys.stderr)
        return 0 if report.all_passed else 1
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
