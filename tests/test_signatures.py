"""The settable and exported surface of the library.  Every defaulted
parameter of a public function or method of an ``equifix`` module is one
that a scenario, a CLI path or a test sets to a value other than its
default; a gate's tolerance is a constant of the kernel that gates with it,
and a corrector's has no default, since every caller passes its scenario's.
Every name the package exports is one that a scenario kind, the CLI or a
test of a paper claim uses.  A defaulted parameter or an export added
anywhere fails here until it is listed with its caller."""

import importlib
import inspect

import equifix

MODULES = ("groups", "matfun", "galgebra", "repcorrect", "cocycles",
           "relations", "graded", "scenarios", "cli")

# Each function or method with defaulted parameters, and who sets them.
SETTABLE = {
    "groups.FiniteGroup.__init__": {"name"},          # every constructor
    "matfun.largest_norm": {"floor"},                 # every screened gate
    "galgebra.GAlgebra.__init__": {"action_tol", "check"},  # restrict: no check
    "galgebra.matrix_algebra": {"action_tol"},        # the corner
    "galgebra.max_pair_defect": {"act",               # the cocycle defect
                                 "floor"},            # ApproxRep.defect_at_most
    "repcorrect.ApproxRep.__init__": {"unitary", "unital",   # the lift's maps
                                      "act"},                # cocycles.cocycle
    "repcorrect.correct_to_rep": {"pin"},
    "repcorrect.equivariance_defect": {"floor"},      # the lift's phi gate
    "cocycles.trivialize": {"pin"},
    "relations.measure_partition_seeds": {"unit"},    # the tracial residuals
    "scenarios.Scenario.__init__": {"group", "dimension", "magnitude", "trials",
                                    "tolerance", "tower", "source",
                                    "corner_corank", "graded_data"},
    "scenarios.random_skew": {"corner", "count"},
    "scenarios.perturb_rep_values": {"draw"},
    "scenarios.TrialReport.__init__": {"error"},      # a trial that raised
    "scenarios.build_rokhlin_scenario": {"corank"},   # the tracial trials
    "cli.main": {"argv"},
}

# The names ``equifix`` exports, by who uses them.
EXPORTS = {
    "make_group, for every scenario": {
        "FiniteGroup", "cyclic_group", "dihedral_group", "make_group",
        "product_group", "symmetric_group"},
    "every corrector's kernels and gates": {
        "EPS0", "UNITARIZE_EPS", "Blocks", "exp_skew", "largest_norm",
        "polar_unitary", "principal_log_unitary", "spectral_round_unitary"},
    "the cocycle, lift, rokhlin and tracial kinds": {
        "GAlgebra", "Tower", "matrix_algebra"},
    "the rep kind": {"ApproxRep", "Correction", "correct_to_rep", "one_step"},
    "the lift kind": {"SourceAction", "intertwiner", "lift_group_rep",
                      "symmetrize", "translation_source_action"},
    "the cocycle kind": {"coboundary", "cocycle", "mismatch",
                         "one_step_cobound", "trivialize"},
    "the integral_estimate kind": {"verify_integral_estimate"},
    "the rokhlin and tracial kinds": {"stabilize_partition",
                                      "stabilize_tracial_partition"},
    "the graded kind": {"GradedAlgebra", "character_table", "graded_correct",
                        "regular_graded_model"},
}


def public_callables(module):
    """(qualified name, callable) for the functions a module defines and
    the public methods (and __init__) of the classes it defines."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if inspect.isfunction(member) or \
                        isinstance(member, (staticmethod, classmethod)):
                    yield f"{short}.{name}.{attr}", getattr(obj, attr)


def test_defaulted_parameters_are_the_ones_callers_set():
    found = {}
    for m in MODULES:
        for name, f in public_callables(importlib.import_module(f"equifix.{m}")):
            params = {p.name for p in inspect.signature(f).parameters.values()
                      if p.default is not p.empty}
            if params:
                found[name] = params
    assert found == SETTABLE


def test_exports_are_the_ones_callers_use():
    listed = [name for names in EXPORTS.values() for name in names]
    assert len(listed) == len(set(listed))
    exported = {name for name, obj in vars(equifix).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == set(listed)
