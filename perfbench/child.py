"""One workload process of the benchmark.

Started by ``run.py`` with a JSON spec as its only argument:
``{"src", "out", "workload", "seed", "mode", "seconds"}``.  ``mode`` is

- ``probe``: set up exactly as a run would, note the moment the first
  scenario starts, and exit (one ``setup_s`` sample);
- ``run``: a closed loop of certified trials, new rounds for ``seconds``
  and then round 0 once more to check reproducibility (in-process
  workloads), or one ``equifix suite`` invocation (``cli-suite``);
- ``trace``: a fixed amount of work once as warm-up, once untraced and once
  traced, reporting the per-layer metrics.

Before every trial of a ``run`` and after each of its
``run_scenario`` calls, the process times a fixed reference kernel
(``reference_s``), so the parent can tell how fast the machine was running
at that moment.

The last line of stdout is one JSON object.  ``calls`` has one
(label, seconds, trial wall times, trace.csv sha256, reference times) row
per ``run_scenario`` call, with a reference time before each trial and one
after the call; ``passes`` lists the calls
that must have produced identical trace.csv files; ``ready`` is a
``time.monotonic()`` reading, comparable with the parent's clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from importlib import metadata
from pathlib import Path


def reference_s(repeats=3, loops=10):
    """Best of ``repeats`` timings of a small fixed mix of Python-level
    NumPy/LAPACK calls on a 6x6 complex matrix, the kind of work the
    correctors do.  It runs no equifix code, so changes to the program do
    not move it; only the machine's current speed does."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            w, v = np.linalg.eigh(a + a.conj().T)
            np.linalg.svd(a, compute_uv=False)
            x = (v * np.exp(1j * w)) @ v.conj().T
            float(np.linalg.norm(x, 2))
        best = min(best, time.perf_counter() - start)
    return best


class Ready(BaseException):
    """Raised by a probe at the first scenario, unwinding out of the CLI."""


class Recorder:
    """Collects the outcome of every ``run_scenario`` call.

    With ``per_trial`` the reference kernel is timed before every trial
    (that time is taken out of the call's seconds) and after the call."""

    def __init__(self, scenarios_mod, probe, per_trial):
        self.scenarios = scenarios_mod
        self.probe = probe
        self.ready = None
        self.calls = []
        self.errors = []
        self._refs = []
        self._ref_s = 0.0
        self.per_trial = per_trial
        if per_trial:
            runners = scenarios_mod.TRIAL_RUNNERS
            for kind, fn in runners.items():
                runners[kind] = self._before_trial(fn)

    def _before_trial(self, fn):
        def run_trial(scenario, trial):
            start = time.perf_counter()
            self._refs.append(reference_s())
            self._ref_s += time.perf_counter() - start
            return fn(scenario, trial)
        return run_trial

    def run(self, label, scenario, out_dir):
        if self.ready is None:
            self.ready = time.monotonic()
            if self.probe:
                raise Ready
        self._refs, self._ref_s = [], 0.0
        start = time.perf_counter()
        try:
            # Looked up on the module at call time, so the traced phase
            # calls the wrapped run_scenario.
            report = self.scenarios.run_scenario(scenario, out_dir)
        except Exception as exc:  # a crash fails every trial of the entry
            report = None
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start - self._ref_s
        refs = self._refs + [reference_s()] if self.per_trial else []
        if report is None:
            self.calls.append((label, seconds, [None] * scenario.trials, None, refs))
            return None
        digest = hashlib.sha256((Path(out_dir) / "trace.csv").read_bytes()).hexdigest()
        # Wall time of every certified trial; None marks a failed one.
        times = [t.wall_time if t.all_passed() else None for t in report.trials]
        self.errors.extend(f"{label}: {line}" for line in report.failures)
        self.calls.append((label, seconds, times, digest, refs))
        return report


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "jsonschema")},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in os.environ.items()
                    if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def in_process(spec, rec, scenarios_mod, make_group):
    from workloads import TRACE_ROUNDS, round_scenarios

    workload, seed = spec["workload"], spec["seed"]
    out = Path(spec["out"])

    def build(r):
        return [(label, scenarios_mod.Scenario.from_dict(d))
                for label, d in round_scenarios(workload, seed, r)]

    def run_rounds(rounds):
        mark = len(rec.calls)
        for scs in rounds:
            for label, sc in scs:
                rec.run(label, sc, out / label)
        return rec.calls[mark:]

    first = build(0)
    for _, sc in first:
        make_group(sc.group["kind"], sc.group.get("params"))
    if spec["mode"] == "trace":
        rounds = [first] + [build(r) for r in range(1, TRACE_ROUNDS[workload])]
        run_rounds(rounds[:1])
        return traced_phases(lambda: run_rounds(rounds))
    start = time.perf_counter()
    calls = run_rounds([first])
    r = 1
    while time.perf_counter() - start < spec["seconds"]:
        calls += run_rounds([build(r)])
        r += 1
    again = run_rounds([first])
    return {"calls": calls, "passes": [calls[:len(first)], again]}


def suite(spec, rec, cli):
    from workloads import suite_label

    def timed(scenario, out_dir):
        return rec.run(suite_label(scenario), scenario, out_dir)

    cli.run_scenario = timed
    argv = ["suite", "--seed", str(spec["seed"]), "--out", spec["out"]]

    def once():
        mark = len(rec.calls)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            rec.errors.append(f"equifix suite exited with {code}")
        return rec.calls[mark:]

    if spec["mode"] == "trace":
        once()
        return traced_phases(once)
    calls = once()
    return {"calls": calls, "passes": [calls]}


def traced_phases(work):
    """Run ``work`` untraced, then traced; per-layer metrics of the latter."""
    import equifix
    from equifix import (cli, cocycles, galgebra, graded, groups, matfun,
                         relations, repcorrect, scenarios)
    from layers import layer_metrics
    from tracer import Tracer

    def timed():
        start = time.perf_counter()
        calls = work()
        elapsed = time.perf_counter() - start
        certified = sum(t is not None for call in calls for t in call[2])
        return calls, certified / elapsed

    untraced, untraced_tps = timed()
    tracer = Tracer()
    tracer.install([equifix, groups, matfun, galgebra, repcorrect, cocycles,
                    relations, graded, scenarios, cli])
    traced, traced_tps = timed()
    metrics, spans = layer_metrics(tracer, [call[0] for call in traced])
    metrics["trace.trials_per_s.untraced"] = (untraced_tps, "1/s")
    metrics["trace.trials_per_s.traced"] = (traced_tps, "1/s")
    metrics["trace.overhead"] = (traced_tps / untraced_tps, "ratio")
    return {"calls": untraced + traced, "passes": [untraced, traced],
            "metrics": metrics, "spans": spans}


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import equifix.cli as cli
    from equifix import scenarios
    from equifix.groups import make_group
    import_s = time.perf_counter() - start
    if Path(scenarios.__file__).resolve().parent != Path(spec["src"]) / "equifix":
        raise SystemExit(f"equifix imported from {scenarios.__file__}, not the checkout")
    rec = Recorder(scenarios, probe=spec["mode"] == "probe",
                   per_trial=spec["mode"] == "run")
    try:
        if spec["workload"] == "cli-suite":
            result = suite(spec, rec, cli)
        else:
            result = in_process(spec, rec, scenarios, make_group)
    except Ready:
        result = {}
    result.update(ready=rec.ready, import_s=import_s, errors=rec.errors)
    if "metrics" in result:
        result["metrics"]["cli.import.s"] = (import_s, "s")
    if spec["mode"] != "probe":
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["env"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
