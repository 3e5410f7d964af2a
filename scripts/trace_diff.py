#!/usr/bin/env python3
"""Compare the scenario outputs of this checkout with those of another.

Usage: trace_diff.py OTHER_CHECKOUT

Runs one fixed set of 76 scenarios in both trees, each tree in its own
process importing that tree's ``src/`` with one BLAS thread: the
``rep-correct`` and ``algebra-action`` workloads of
``perfbench/workloads.py`` (this checkout's) at seeds 1 and 7919, rounds
0-2, and the ``suite`` battery at seeds 0 and 11.  It then reports

* how many ``trace.csv`` files are byte-identical, how many
  ``report.json`` files are equal when parsed, their ``wall_time`` fields
  aside (the bytes of a report are not compared), and the scenarios where
  either is not;
* every difference in trace rows, iteration counts, ``passes``, bound
  names, measured names, errors or ``failures``;
* the worst value excess: the largest |a - b| / (1e-14 + 1e-12 |b|) over
  every trace value, measured value and bound, b the other checkout's;
* the line count of each tree's ``src/equifix/*.py``, the other's first,
  and its split into code, docstring, comment and blank lines: a
  docstring line lies in a string that is a whole statement, a comment
  line holds a comment and nothing else, and a blank line outside those
  strings holds nothing.

Exits 0 when nothing differs but values, and every value is within its
allowance (excess at most 1); 1 otherwise.
"""

import ast
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import round_scenarios  # noqa: E402

WORKLOADS = ("rep-correct", "algebra-action")
WORKLOAD_SEEDS = (1, 7919)
ROUNDS = (0, 1, 2)
SUITE_SEEDS = (0, 11)

# Runs every job into argv[2]: a scenario dict, or a suite seed.
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from equifix.scenarios import Scenario, run_scenario, suite_scenarios
for name, job in json.load(sys.stdin):
    if isinstance(job, int):
        for label, s in suite_scenarios(job):
            run_scenario(s, f"{sys.argv[2]}/{name}/{label}")
    else:
        run_scenario(Scenario.from_dict(job), f"{sys.argv[2]}/{name}")
"""


def jobs():
    out = []
    for workload in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for r in ROUNDS:
                out += [(f"{workload}-{seed}-{r}/{label}", d)
                        for label, d in round_scenarios(workload, seed, r)]
    return out + [(f"suite-{seed}", seed) for seed in SUITE_SEEDS]


def start(tree: Path, out: Path, work) -> subprocess.Popen:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-c", CHILD, str(tree / "src"), str(out)],
                            stdin=subprocess.PIPE, env=env, text=True)
    proc.stdin.write(json.dumps(work))
    proc.stdin.close()
    return proc


KINDS = ("code", "docstring", "comment", "blank")


def src_lines(tree: Path) -> dict:
    """The lines of the tree's ``src/equifix/*.py``, as ``wc -l`` counts
    them, by kind (module docstring) and in all."""
    counts = dict.fromkeys(KINDS, 0)
    for path in (tree / "src" / "equifix").glob("*.py"):
        text = path.read_text()
        lines = text.split("\n")[:text.count("\n")]
        kind = ["code" if line.strip() else "blank" for line in lines]
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                kind[node.lineno - 1:node.end_lineno] = \
                    ["docstring"] * (node.end_lineno - node.lineno + 1)
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            row, col = tok.start
            if tok.type == tokenize.COMMENT and not lines[row - 1][:col].strip():
                kind[row - 1] = "comment"
        for k in kind:
            counts[k] += 1
    return {**counts, "total": sum(counts.values())}


class Diff:
    def __init__(self):
        self.problems = []
        self.worst = (0.0, "")

    def note(self, where, what):
        self.problems.append(f"{where}: {what}")

    def value(self, where, a, b):
        """Compare this checkout's value a with the other's b."""
        if isinstance(a, bool) or isinstance(b, bool) or not (
                isinstance(a, (int, float)) and isinstance(b, (int, float))):
            if a != b:
                self.note(where, f"{a!r} != {b!r}")
            return
        if isinstance(a, int) and isinstance(b, int):
            if a != b:
                self.note(where, f"{a} != {b}")
            return
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        excess = abs(a - b) / (1e-14 + 1e-12 * abs(b))
        if not math.isfinite(excess):
            excess = math.inf
        if excess > self.worst[0]:
            self.worst = (excess, f"{where}: {a!r} against {b!r}")

    def names(self, where, a: dict, b: dict):
        if set(a) != set(b):
            self.note(where, f"names {sorted(a)} != {sorted(b)}")
        for k in sorted(set(a) & set(b)):
            self.value(f"{where}/{k}", a[k], b[k])


def trace_rows(path: Path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def compare_trace(diff: Diff, where: str, a: Path, b: Path):
    head_a, rows_a = trace_rows(a)
    head_b, rows_b = trace_rows(b)
    if head_a != head_b or [r[:2] for r in rows_a] != [r[:2] for r in rows_b]:
        diff.note(where, "trace rows (trial, iteration) differ")
        return
    for row_a, row_b in zip(rows_a, rows_b):
        for col, x, y in zip(("defect", "distance"), row_a[2:], row_b[2:]):
            diff.value(f"{where} trial {row_a[0]} iteration {row_a[1]} {col}",
                       float(x), float(y))


def without_wall_time(report: dict) -> dict:
    return {**report, "trials": [{k: v for k, v in t.items() if k != "wall_time"}
                                 for t in report["trials"]]}


def compare_report(diff: Diff, where: str, a: dict, b: dict):
    for key in ("scenario", "all_passed", "failures"):
        if a[key] != b[key]:
            diff.note(where, f"{key} {a[key]!r} != {b[key]!r}")
    if [t["trial"] for t in a["trials"]] != [t["trial"] for t in b["trials"]]:
        diff.note(where, "trials differ")
        return
    for ta, tb in zip(a["trials"], b["trials"]):
        at = f"{where} trial {ta['trial']}"
        if ta["passes"] != tb["passes"]:
            diff.note(at, f"passes {ta['passes']} != {tb['passes']}")
        diff.names(f"{at} bounds", ta["bounds"], tb["bounds"])
        diff.names(f"{at} measured", ta["measured"], tb["measured"])


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    other = Path(argv[0]).resolve()
    if not (other / "src" / "equifix").is_dir():
        sys.exit(f"{other} is not an equifix checkout")
    work = jobs()
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "this", Path(tmp) / "other"]
        procs = [start(tree, out, work) for tree, out in zip((ROOT, other), outs)]
        if any([p.wait() for p in procs]):
            sys.exit("a scenario run failed")
        diff = Diff()
        dirs = sorted(p.parent.relative_to(outs[1]) for p in outs[1].rglob("trace.csv"))
        same_trace = same_report = 0
        changed = []
        for d in dirs:
            a, b = outs[0] / d, outs[1] / d
            if not (a / "trace.csv").exists():
                diff.note(str(d), "missing in this checkout")
                continue
            trace_same = (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
            ra, rb = (without_wall_time(json.loads((x / "report.json").read_text()))
                      for x in (a, b))
            same_trace += trace_same
            same_report += ra == rb
            if not (trace_same and ra == rb):
                changed.append(str(d))
            compare_trace(diff, str(d), a / "trace.csv", b / "trace.csv")
            compare_report(diff, str(d), ra, rb)
    print(f"scenarios: {len(dirs)}")
    print(f"trace.csv byte-identical: {same_trace}/{len(dirs)}")
    print(f"report.json equal when parsed, wall_time aside: {same_report}/{len(dirs)}")
    for name in changed:
        print(f"  differs: {name}")
    print(f"differences other than values: {len(diff.problems)}")
    for line in diff.problems[:50]:
        print(f"  {line}")
    excess, where = diff.worst
    print(f"worst value excess over 1e-14 + 1e-12|v|: {excess:.3g}"
          + (f" ({where})" if where else ""))
    before, after = src_lines(other), src_lines(ROOT)
    print(f"src/equifix lines: {before['total']:,} -> {after['total']:,} ("
          + ", ".join(f"{k} {before[k]:,} -> {after[k]:,}" for k in KINDS) + ")")
    return 0 if not diff.problems and excess <= 1 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
