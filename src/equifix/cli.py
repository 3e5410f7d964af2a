"""Command-line scenario runner.

Subcommands map to correctors: ``stabilize`` (representation correction),
``cocycle``, ``lift``, ``rokhlin``, ``tracial``, ``graded``, ``estimate``,
and ``suite`` (the full battery).  The subcommands and their default
scenarios are the entries of ``scenarios.SUITE``: a subcommand runs its
entry, and ``suite`` runs every entry, entry k at seed ``--seed`` + k.
Subcommands but ``suite`` accept ``--scenario FILE`` to load a JSON
scenario instead; all take ``--out``, ``--seed``, ``--trials`` and
``--tolerance`` overrides, which the scenario schema checks like a file.
The default output directory is $EQUIFIX_OUT when set.  Exit code is 0
iff every checked bound passed; violated bounds are named to stderr
(exit 1); input that cannot run (``suite --scenario`` too), an output that
cannot be made or written, or a scenario file that is a run output, exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .scenarios import (SUITE, Scenario, ScenarioError, run_scenario,
                        suite_scenarios, validate_scenario)

# Subcommand -> the suite label of its default entry.
SUBCOMMANDS = {sub: label for label, (sub, _) in SUITE.items() if sub}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equifix",
        description="Correct approximate equivariant structures on matrix "
                    "algebras to exact ones and certify the error bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {name: f"run {SUITE[label][1]['kind']} scenarios"
             for name, label in SUBCOMMANDS.items()}
    for name, text in {**helps, "suite": "run the full scenario battery"}.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--scenario", type=Path, default=None,
                       help="JSON scenario file")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: $EQUIFIX_OUT or ./out)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--tolerance", type=float, default=None)
    return parser


def _load_scenario(args, label: str) -> Scenario:
    fields = SUITE[label][1]
    if args.scenario is not None:
        try:
            data = json.loads(Path(args.scenario).read_text())
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"{args.scenario}: cannot read a JSON scenario "
                                f"({exc})") from None
        validate_scenario(data)
        if data["kind"] != fields["kind"]:
            raise ScenarioError(
                f"scenario kind {data['kind']!r} does not match subcommand "
                f"({fields['kind']!r} expected)")
    else:
        data = {"seed": 0, **fields}
    return Scenario.from_dict(data, seed=args.seed, trials=args.trials,
                              tolerance=args.tolerance)


def _refuse_own_output(scenario: Path, out: Path):
    """Refuse a scenario file that the run's output would overwrite."""
    for target in (out / "trace.csv", out / "report.json"):
        if scenario.resolve() == target.resolve() or (
                scenario.exists() and target.exists() and
                os.path.samefile(scenario, target)):
            raise ScenarioError(f"{scenario}: the scenario file is the output "
                                f"{target}, which the run would overwrite")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = args.out or Path(os.environ.get("EQUIFIX_OUT") or "out")
    try:
        if args.command == "suite":
            if args.scenario is not None:
                raise ScenarioError(f"{args.scenario}: suite takes no --scenario")
            entries = suite_scenarios(0 if args.seed is None else args.seed,
                                      trials=args.trials, tolerance=args.tolerance)
            ok = True
            for label, sc in entries:
                report = run_scenario(sc, out / label)
                status = "ok" if report.all_passed else "FAIL"
                print(f"{label:<18} trials={sc.trials:<4} {status}")
                for line in report.failures:
                    print(f"  {label}: {line}", file=sys.stderr)
                ok = ok and report.all_passed
            return 0 if ok else 1
        if args.scenario is not None:
            _refuse_own_output(args.scenario, out)
        scenario = _load_scenario(args, SUBCOMMANDS[args.command])
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
