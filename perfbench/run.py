#!/usr/bin/env python3
"""equifix benchmark.

    python3 perfbench/run.py --workload rep-correct [--seed N] [--seconds S]
                             [--trace 0|1] [--baseline RESULT.json]

Workloads: ``rep-correct``, ``algebra-action``, ``cli-suite``, or ``all``.
Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Each workload runs in fresh single processes with
BLAS and OpenMP pinned to one thread, as one closed-loop caller: the next
trial starts only after the previous one has been certified.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a fixed
amount of work untraced and then traced and reports the per-layer metrics
and the tracing overhead.  Every run checks each trial's own certified
bounds and the byte-for-byte reproducibility of every scenario's
``trace.csv``, merges its metrics into ``perfbench/out/results/`` and, with
``--baseline``, prints each metric next to the earlier result with the
ratio.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from layers import moves  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, suite_seed  # noqa: E402

# Fresh interpreters timed from start to first scenario; setup_s is the
# median of all of them.  Half run before the workload and half after.
SETUP_PROBES = 6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT = 170
# Times are reported at the speed at which the reference kernel
# (child.reference_s) takes this long, about its unloaded time on a 2-core
# Xeon VM.  The CPU speed of a shared VM drifts by up to 40% for tens of
# seconds; the kernel, timed before every trial, tracks that drift, and
# scaling by it removes it.  Unscaled figures are kept in the result file.
REFERENCE_S = 0.0005
# Set-up is mostly imports, which the kernel above does not track.  Each
# set-up probe is therefore scaled by a fresh interpreter that imports
# only equifix's dependencies (no equifix code), timed just before and
# just after it, to the speed at which that import takes this long.
SETUP_REFERENCE_S = 0.45
REFERENCE_IMPORT = "import numpy, scipy.linalg, jsonschema"


class BenchError(RuntimeError):
    pass


def start_process(args, what, timeout):
    """Run ``args`` to the end; (monotonic start time, stdout)."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    start = time.monotonic()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}:\n{err[-2000:]}")
    return start, out


def spawn(spec, timeout):
    what = f"{spec['workload']} {spec['mode']}"
    start, out = start_process([sys.executable, str(HERE / "child.py"),
                                json.dumps(spec)], what, timeout)
    if not out.strip():
        raise BenchError(f"{what} printed nothing")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def reference_setup_s():
    """Wall time of a fresh interpreter that imports equifix's dependencies."""
    start, _ = start_process([sys.executable, "-c", REFERENCE_IMPORT],
                             "reference import", CHILD_TIMEOUT)
    return time.monotonic() - start


def probe_setups(child, count):
    """(set-up, reference) of ``count`` probes, each probe's reference the
    mean of the reference imports timed just before and just after it."""
    refs = [reference_setup_s()]
    setups = []
    for _ in range(count):
        setups.append(child("probe")["setup_s"])
        refs.append(reference_setup_s())
    return [(s, (a + b) / 2) for s, a, b in zip(setups, refs, refs[1:])]


def tail(times):
    """Highest nearest-rank percentile with at least ten trials beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"only {n} certified trials; the tail needs 11")
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def code_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "equifix").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def first_hashes(pairs):
    first = {}
    for label, digest in pairs:
        first.setdefault(label, digest)
    return first


def write_json(path, data):
    """Replace ``path`` whole, so a run that stops midway leaves no half file."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, path)


def same_as_recorded(workload, seed, hashes):
    """Compare trace.csv digests with those an earlier run of the same seed
    on the same code recorded; record them if none did."""
    path = OUT / "determinism.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}:{seed}:{code_digest()}"
    if key in known:
        return known[key] == hashes
    known[key] = hashes
    write_json(path, known)
    return True


def reproducible(passes):
    """Whether every pass made the same calls with identical trace.csv."""
    first = [(c[0], c[3]) for c in passes[0]]
    return all([(c[0], c[3]) for c in p] == first for p in passes)


def e2e_metrics(setups, calls, scale):
    """End-to-end metrics from (set-up, reference) probe samples and
    run_scenario calls.  With ``scale``, every set-up is multiplied by
    SETUP_REFERENCE_S over its reference, and every trial-loop time by
    REFERENCE_S over the reference time taken around it: the mean of the
    readings before and after a trial, and the mean of a call's readings
    for the rest of the call (trial set-up and report writing)."""
    refs = [r for c in calls for r in c[4]]

    def factor(nominal, ref):
        return nominal / ref if scale else 1.0

    trials, busy = [], 0.0
    for label, seconds, times, digest, call_refs in calls:
        rest = seconds - sum(t for t in times if t is not None)
        busy += rest * factor(REFERENCE_S, statistics.fmean(call_refs))
        for t, before, after in zip(times, call_refs, call_refs[1:]):
            if t is not None:
                trials.append(t * factor(REFERENCE_S, (before + after) / 2))
                busy += trials[-1]
    tail_s, tail_pct, n = tail(trials)
    setup = [s * factor(SETUP_REFERENCE_S, ref) for s, ref in setups]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "trials_per_s": {"value": len(trials) / busy, "unit": "1/s"},
        "trial_p50_ms": {"value": 1000 * statistics.median(trials), "unit": "ms"},
        "trial_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
    }
    return metrics, {"percentile": tail_pct, "trials": n,
                     "reference_median_s": statistics.median(refs),
                     "setup_reference_median_s":
                         statistics.median(ref for _, ref in setups)}


def run_workload(workload, seed, seconds, trace):
    work = OUT / f"work-{workload}-{os.getpid()}"
    spec = {"src": str(SRC), "out": str(work), "workload": workload,
            "seed": seed, "seconds": seconds}
    def child(mode, k=0):
        # cli-suite: the k-th `equifix suite` process gets its own suite seed.
        if workload == "cli-suite":
            return spawn({**spec, "seed": suite_seed(seed, k), "mode": mode},
                         CHILD_TIMEOUT)
        return spawn({**spec, "mode": mode}, CHILD_TIMEOUT)

    probes, check = [], None
    try:
        if trace:
            runs = [child("trace")]
        else:
            # Set-up probes go before and after the workload, so that their
            # median spans more of the machine's speed drift.
            probes = probe_setups(child, SETUP_PROBES // 2)
            start = time.monotonic()
            runs = [child("run")]
            if workload == "cli-suite":
                while len(runs) < 2 or time.monotonic() - start < seconds:
                    runs.append(child("run", len(runs)))
                # The first suite seed once more, to check reproducibility.
                check = child("run")
            probes += probe_setups(child, SETUP_PROBES - len(probes))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = [c for r in runs for c in r["calls"]]
    times = [t for c in calls for t in c[2]]
    attempted, failed = len(times), times.count(None)
    errors = [e for r in runs + [check] if r for e in r["errors"]]
    passes = runs[0]["passes"] + (check["passes"] if check else [])
    hashes = first_hashes((c[0], c[3]) for c in passes[0])
    if not reproducible(passes) or not same_as_recorded(workload, seed, hashes):
        errors.append("trace.csv differs between two runs of the same seed")
    result = {
        "workload": workload, "seed": seed, "attempted": attempted,
        "failed": failed, "failed_fraction": failed / attempted if attempted else 1.0,
        "correct": failed == 0 and not errors and attempted > 0,
        "errors": errors[:20], "trace_sha256": hashes, "env": runs[0]["env"],
    }
    if trace:
        run = runs[0]
        result["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in sorted(run["metrics"].items())}
        result["spans"] = run["spans"]
        return result

    metrics, tail_info = e2e_metrics(probes, calls, scale=True)
    metrics["peak_rss_mb"] = {"value": max(r["rss_mb"] for r in runs), "unit": "MB"}
    raw, _ = e2e_metrics(probes, calls, scale=False)
    result.update(metrics=metrics, tail=tail_info, unscaled=raw,
                  setup_samples=len(probes), processes=len(runs))
    return result


def print_result(result, trace):
    print(f"== {result['workload']} seed {result['seed']}: {result['attempted']} "
          f"trials attempted, {result['failed']} failed "
          f"(failed_fraction {result['failed_fraction']:.4g}), "
          f"{'correct' if result['correct'] else 'NOT CORRECT'}")
    for err in result["errors"]:
        print(f"   ! {err}")
    for name, m in result["metrics"].items():
        extra = ""
        if name == "trial_tail_ms":
            extra = (f"   (p{result['tail']['percentile']:.2f} of "
                     f"{result['tail']['trials']} trials)")
        elif name == "setup_s":
            extra = f"   (median of {result['setup_samples']} processes)"
        elif trace:
            extra = f"   -> {moves(name)}"
        print(f"   {name:<44} {m['value']:>14.6g} {m['unit']}{extra}")


def compare(old, new):
    """Every metric of ``new`` next to the same metric of ``old``."""
    print(f"== compared with {old.get('_path', 'baseline')}")
    for section in ("e2e", "trace"):
        a, b = old.get(section, {}), new.get(section, {})
        if not a or not b:
            continue
        print(f"   {section}: seed {a['seed']} -> {b['seed']}")
        for name, m in b["metrics"].items():
            if name not in a["metrics"]:
                continue
            before, after = a["metrics"][name]["value"], m["value"]
            ratio = f"{after / before:8.3f}x" if before else "        -"
            print(f"   {name:<44} {before:>12.6g} -> {after:>12.6g} "
                  f"{m['unit']:<6} {ratio}")


def save(result, trace):
    path = OUT / "results" / f"{result['workload']}-seed{result['seed']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged["trace" if trace else "e2e"] = result
    write_json(path, merged)
    return merged


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path,
                        help="earlier perfbench/out/results file to compare with")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "equifix" / "__init__.py").is_file():
        print(f"no equifix sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = declared_metrics(trace)
    # Read before the run, which may overwrite the same result file.
    old = None
    if args.baseline is not None:
        old = json.loads(args.baseline.read_text())
        old["_path"] = str(args.baseline)
    OUT.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, trace) for w in workloads]
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    metrics = {}
    for result in results:
        print_result(result, trace)
        merged = save(result, trace)
        if old is not None:
            compare(old, merged)
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            print(f"metrics not produced: {missing}", file=sys.stderr)
            return 1
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + n: result["metrics"][n] for n in names})
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
