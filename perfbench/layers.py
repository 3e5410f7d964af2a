"""Per-layer metric definitions and the layer -> end-to-end map.

Each entry of ``LAYERS`` is (metric prefix, span names, fields, moves),
where ``fields`` picks from calls / s (inclusive) / self_s and ``moves``
names the end-to-end metric and workload the layer should move.  Span
names are ``module.function`` or ``module.Class.method``.

There are no queues or waits in a single-process closed loop, so no
waiting time is recorded for any layer.
"""

from __future__ import annotations

from tracer import SCHUR, children_named, group_totals, summary

LAYERS = [
    ("matfun.principal_log_unitary", {"matfun.principal_log_unitary"},
     ("calls", "s"), "trial_p50_ms, trials_per_s on rep-correct"),
    ("matfun.normal_eigensystem", {"matfun.normal_eigensystem"},
     ("calls", "s"), "trial_p50_ms, trials_per_s on rep-correct"),
    ("matfun.exp_skew", {"matfun.exp_skew"},
     ("calls", "s"), "trial_p50_ms, trials_per_s on rep-correct"),
    ("matfun.polar_unitary", {"matfun.polar_unitary"},
     ("calls", "s"), "trial_p50_ms on algebra-action"),
    ("matfun.spectral_round_unitary", {"matfun.spectral_round_unitary"},
     ("calls", "s"), "trial_p50_ms on algebra-action"),
    ("matfun.operator_norm", {"matfun.operator_norm"},
     ("calls", "s"), "trials_per_s on algebra-action and rep-correct"),
    ("groups.haar_average", {"groups.haar_average"},
     ("calls", "self_s"), "trials_per_s on rep-correct"),
    ("groups.make_group", {"groups.make_group"},
     ("calls", "s"), "setup_s on cli-suite"),
    ("galgebra.act", {"galgebra.GAlgebra.act"},
     ("calls", "s"), "trials_per_s on algebra-action"),
    ("galgebra.mult_defect", {"galgebra.GHom.mult_defect"},
     ("calls", "s"), "trial_tail_ms, peak_rss_mb on algebra-action"),
    ("repcorrect.one_step", {"repcorrect.one_step"},
     ("calls", "self_s"), "rep-correct; lift tail on algebra-action"),
    ("repcorrect.correct_to_rep", {"repcorrect.correct_to_rep"},
     ("calls", "self_s"), "rep-correct; lift tail on algebra-action"),
    ("repcorrect.lift_group_rep", {"repcorrect.lift_group_rep"},
     ("calls", "self_s"), "trial_tail_ms on algebra-action"),
    ("repcorrect.defect", {"repcorrect.ApproxRep.defect",
                           "repcorrect.ApproxRep.defect_with_argmax"},
     ("calls", "s"), "rep-correct; lift tail on algebra-action"),
    ("cocycles.one_step_cobound", {"cocycles.one_step_cobound"},
     ("calls", "self_s"), "trials_per_s on algebra-action"),
    ("cocycles.trivialize", {"cocycles.trivialize"},
     ("calls", "self_s"), "trials_per_s on algebra-action"),
    ("cocycles.mismatch", {"cocycles.Cocycle.mismatch"},
     ("calls", "s"), "trials_per_s on algebra-action"),
    ("cocycles.defect", {"cocycles.Cocycle.defect",
                         "cocycles.Cocycle.defect_with_argmax",
                         "cocycles.cocycle_defect"},
     ("calls", "s"), "trials_per_s on algebra-action"),
    ("cocycles.verify_integral_estimate", {"cocycles.verify_integral_estimate"},
     ("calls", "s"), "trials_per_s on cli-suite"),
    ("relations.stabilize_partition", {"relations.stabilize_partition"},
     ("calls", "self_s"), "trials_per_s on algebra-action"),
    ("relations.stabilize_tracial_partition",
     {"relations.stabilize_tracial_partition"},
     ("calls", "self_s"), "trials_per_s on algebra-action"),
    ("relations.measure_partition_seeds", {"relations.measure_partition_seeds"},
     ("calls", "s"), "trials_per_s on algebra-action"),
    ("graded.graded_correct", {"graded.graded_correct"},
     ("calls", "self_s"), "trials_per_s on rep-correct"),
    ("graded.projection", {"graded.GradedAlgebra.projection",
                           "graded.grading_projection"},
     ("calls", "s"), "trials_per_s on rep-correct"),
]

# The trial builders: input construction inside each trial runner.
BUILDERS = {f"scenarios.{name}" for name in (
    "trial_rng", "random_unitary", "random_skew", "random_hermitian",
    "rotation", "exact_rep_values", "nontrivial_action_rep",
    "perturb_rep_values", "build_lift_scenario", "build_rokhlin_scenario")} | {
    "graded.regular_graded_model"}

# Counts and ratios that are not a (calls, time) pair.
DERIVED = {
    "matfun.schur_fallbacks": "trial_p50_ms on rep-correct",
    "matfun.schur_fallback_ratio": "trial_p50_ms on rep-correct",
    "repcorrect.iterations": "rep-correct",
    "cocycles.iterations": "trials_per_s on algebra-action",
    "scenarios.build.s": "trials_per_s on cli-suite",
    "scenarios.write.s": "trials_per_s on cli-suite",
    "scenarios.kind.<entry>.s": "trials_per_s on cli-suite",
    "cli.import.s": "setup_s",
    "trace.overhead": "traced / untraced trials_per_s",
    "trace.trials_per_s.traced": "tracing overhead",
    "trace.trials_per_s.untraced": "tracing overhead",
}

UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def moves(metric):
    """The end-to-end metric and workload a per-layer metric should move."""
    for prefix, _, _, target in LAYERS:
        if metric.startswith(prefix + "."):
            return target
    if metric.startswith("scenarios.kind."):
        return DERIVED["scenarios.kind.<entry>.s"]
    return DERIVED.get(metric, "")


def layer_metrics(tracer, entry_labels):
    """Per-layer metrics of one traced phase.  ``entry_labels`` names the
    scenario behind each ``run_scenario`` call, in call order."""
    spans = tracer.spans()
    out = {}
    for prefix, members, fields, _ in LAYERS:
        calls, incl, own = group_totals(spans, members)
        values = {"calls": calls, "s": incl, "self_s": own}
        for f in fields:
            out[f"{prefix}.{f}"] = (values[f], UNITS[f])
    schur = children_named(spans, SCHUR, "matfun.")
    eig = out["matfun.normal_eigensystem.calls"][0]
    out["matfun.schur_fallbacks"] = (schur, "count")
    out["matfun.schur_fallback_ratio"] = (schur / eig if eig else 0.0, "ratio")
    out["repcorrect.iterations"] = (
        children_named(spans, "repcorrect.one_step", "repcorrect.correct_to_rep"),
        "count")
    out["cocycles.iterations"] = (
        children_named(spans, "cocycles.one_step_cobound", "cocycles.trivialize"),
        "count")
    out["scenarios.build.s"] = (group_totals(spans, BUILDERS)[1], "s")
    runs = [(dur, own) for name, dur, own, _ in spans
            if name == "scenarios.run_scenario"]
    out["scenarios.write.s"] = (sum(own for _, own in runs), "s")
    kinds = {}
    for label, (dur, _) in zip(entry_labels, runs):
        kinds[label] = kinds.get(label, 0.0) + dur
    for label, total in kinds.items():
        out[f"scenarios.kind.{label}.s"] = (total, "s")
    return out, summary(spans)
