"""Workload definitions: scenario dicts generated from the workload seed.

An in-process workload is a list of entries (label, template, magnitude
range, trials per round).  Round ``r`` of seed ``s`` gives every entry a
fresh scenario seed and magnitude drawn from ``default_rng([s, r])``, so the
same seed always yields the same dicts and later rounds never repeat the
inputs of earlier ones.  ``cli-suite`` runs ``equifix suite`` at its shipped
defaults, with ``--seed`` derived from the workload seed and the process.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 1
# Later claims must also hold on this seed, which is not used while tuning.
HELDOUT_SEED = 7919

TOLERANCE = 1e-12

REP_CORRECT = [
    ("rep-cyclic6", {"kind": "rep", "group": {"kind": "cyclic", "params": 6},
                     "dimension": 6}, (0.005, 0.01), 2),
    ("rep-symmetric3", {"kind": "rep", "group": {"kind": "symmetric", "params": 3},
                        "dimension": 6}, (0.005, 0.01), 2),
    ("rep-z2xz3", {"kind": "rep", "group": {"kind": "product",
                                            "params": [["cyclic", 2], ["cyclic", 3]]},
                   "dimension": 8}, (0.005, 0.01), 2),
    ("rep-dihedral4-tower", {"kind": "rep", "group": {"kind": "dihedral", "params": 4},
                             "dimension": 6, "tower": {"levels": 2}},
     (0.005, 0.01), 2),
    # The graded corrector needs every value within 1/408 of its grading
    # component, so its perturbations stay below that.
    ("graded-cyclic8", {"kind": "graded", "group": {"kind": "cyclic", "params": 8}},
     (0.001, 0.002), 2),
]

ALGEBRA_ACTION = [
    ("cocycle-cyclic6", {"kind": "cocycle", "group": {"kind": "cyclic", "params": 6},
                         "dimension": 12}, (0.005, 0.01), 2),
    ("cocycle-dihedral3-tower", {"kind": "cocycle",
                                 "group": {"kind": "dihedral", "params": 3},
                                 "dimension": 8, "tower": {"levels": 2}},
     (0.005, 0.01), 2),
    ("rokhlin-cyclic4", {"kind": "rokhlin", "group": {"kind": "cyclic", "params": 4},
                         "dimension": 24}, (0.01, 0.02), 2),
    ("tracial-cyclic3", {"kind": "tracial", "group": {"kind": "cyclic", "params": 3},
                         "dimension": 16, "corner_corank": 1}, (0.01, 0.02), 2),
    ("lift-translation6", {"kind": "lift", "group": {"kind": "cyclic", "params": 6},
                           "source": {"model": "translation", "order": 6},
                           "tower": {"levels": 8, "base": 0.2, "ratio": 0.2}},
     (0.01, 0.01), 2),
]

IN_PROCESS = {"rep-correct": REP_CORRECT, "algebra-action": ALGEBRA_ACTION}
WORKLOADS = ("rep-correct", "algebra-action", "cli-suite")

# Rounds of the traced run: a fixed amount of work, so that every call
# count repeats exactly for a given seed.
TRACE_ROUNDS = {"rep-correct": 5, "algebra-action": 5}


def round_scenarios(workload: str, seed: int, r: int):
    """(label, scenario dict) for every entry of round ``r``."""
    rng = np.random.default_rng([seed, r])
    out = []
    for label, template, (lo, hi), trials in IN_PROCESS[workload]:
        d = dict(template)
        d["seed"] = int(rng.integers(0, 2 ** 32))
        d["magnitude"] = float(rng.uniform(lo, hi))
        d["trials"] = trials
        d["tolerance"] = TOLERANCE
        out.append((label, d))
    return out


def suite_seed(seed: int, k: int) -> int:
    """``--seed`` of the k-th ``equifix suite`` process of a cli-suite run.
    The suite gives its eight entries seeds ``s`` to ``s + 7``, and each
    scenario seed must fit the 64-bit Philox key, so ``s`` is drawn below
    2**32 rather than computed from a workload seed of any size."""
    return int(np.random.default_rng([seed, k]).integers(0, 2 ** 32 - 8))


def suite_label(scenario) -> str:
    """Name of a suite entry: its kind, with ``_tower`` for the pinned rep."""
    if scenario.kind == "rep" and scenario.tower:
        return "rep_tower"
    return scenario.kind
