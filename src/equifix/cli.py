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
                        suite_scenarios)

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


def _load_scenario(args, label: str, out: Path) -> Scenario:
    """The subcommand's suite entry, or its scenario file, with the overrides.
    A file that the run's output would overwrite is refused."""
    fields = SUITE[label][1]
    data = {"seed": 0, **fields}
    if args.scenario is not None:
        try:
            data = json.loads(args.scenario.read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise ScenarioError(f"{args.scenario}: cannot read a JSON scenario "
                                f"({exc})") from None
        for target in (out / "trace.csv", out / "report.json"):
            if target.exists() and os.path.samefile(args.scenario, target):
                raise ScenarioError(f"{args.scenario}: the scenario file is the "
                                    f"output {target}, which the run would overwrite")
    scenario = Scenario.from_dict(data, seed=args.seed, trials=args.trials,
                                  tolerance=args.tolerance)
    if scenario.kind != fields["kind"]:
        raise ScenarioError(f"scenario kind {scenario.kind!r} does not match "
                            f"subcommand ({fields['kind']!r} expected)")
    return scenario


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
        scenario = _load_scenario(args, SUBCOMMANDS[args.command], out)
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
