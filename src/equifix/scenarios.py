"""Scenario construction, perturbation and execution.

A scenario describes a family of randomized trials for one corrector:
build an exact structure, perturb it by a prescribed magnitude, run the
correction, and check every quantitative bound the corrector certifies.
Each kind has a trial body that returns its measured figures, its checks
as (name, measured, bound, slack) rows and its trace rows; one wrapper
draws the trial's generator, times the body and passes a check iff
measured <= bound + slack.  ``SUITE`` is the one table of default
scenarios: the ``suite`` battery runs every entry, and each CLI
subcommand runs its own.

Randomness comes from the counter-based Philox generator keyed by the
scenario seed with the trial index as a counter offset, so identical
scenario + seed reproduce identical outputs byte for byte.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .groups import FiniteGroup, cyclic_group, make_group
from .matfun import EPS0, Blocks, adjoint, exp_skew, largest_norm, operator_norm
from .galgebra import GAlgebra, GHom, Tower, matrix_algebra
from .repcorrect import (ApproxRep, SourceAction, correct_to_rep,
                         lift_group_rep, one_step, translation_source_action)
from .cocycles import coboundary, one_step_cobound, trivialize, \
    verify_integral_estimate
from .relations import stabilize_partition, stabilize_tracial_partition
from .graded import (GradedAlgebra, character_table, graded_correct,
                     regular_graded_model)

# The default battery, keyed by suite label: the subcommand that runs the
# entry alone (None for the tower-pinned rep, which only the suite runs) and
# its scenario fields.  ``equifix suite --seed s`` runs entry k at seed
# s + k; a subcommand runs its entry at seed 0 unless given --seed.
SUITE = {
    "rep": ("stabilize", {"kind": "rep", "group": {"kind": "cyclic", "params": 4},
                          "dimension": 4, "magnitude": 0.01, "trials": 25}),
    "rep_tower": (None, {"kind": "rep", "group": {"kind": "dihedral", "params": 4},
                         "dimension": 4, "magnitude": 0.005, "trials": 10,
                         "tower": {"levels": 2}}),
    "cocycle": ("cocycle", {"kind": "cocycle",
                            "group": {"kind": "cyclic", "params": 3},
                            "dimension": 4, "magnitude": 0.01, "trials": 25}),
    "lift": ("lift", {"kind": "lift", "group": {"kind": "cyclic", "params": 3},
                      "source": {"model": "translation", "order": 3},
                      "tower": {"levels": 8, "base": 0.2, "ratio": 0.2},
                      "trials": 10}),
    "rokhlin": ("rokhlin", {"kind": "rokhlin",
                            "group": {"kind": "cyclic", "params": 3},
                            "dimension": 6, "magnitude": 0.02, "trials": 15}),
    "tracial": ("tracial", {"kind": "tracial",
                            "group": {"kind": "cyclic", "params": 2},
                            "dimension": 5, "magnitude": 0.02, "trials": 10,
                            "corner_corank": 1}),
    # Magnitude at most 1/816 keeps every value within the 1/408 the graded
    # corrector requires of its distance to the grading component.
    "graded": ("graded", {"kind": "graded", "group": {"kind": "cyclic", "params": 4},
                          "magnitude": 0.001, "trials": 15}),
    "integral_estimate": ("estimate", {"kind": "integral_estimate",
                                       "group": {"kind": "cyclic", "params": 5},
                                       "dimension": 4, "magnitude": 0.3,
                                       "trials": 25}),
}

SCENARIO_KINDS = tuple(dict.fromkeys(fields["kind"] for _, fields in SUITE.values()))

# A matrix is an array of rows; each entry is an [re, im] pair.
MATRIX_SCHEMA = {
    "type": "array", "minItems": 1,
    "items": {"type": "array", "minItems": 1,
              "items": {"type": "array", "items": {"type": "number"},
                        "minItems": 2, "maxItems": 2}},
}

SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["kind", "seed"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": list(SCENARIO_KINDS)},
        "group": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["cyclic", "dihedral", "symmetric", "product"]},
                "params": {},
            },
        },
        "dimension": {"type": "integer", "minimum": 1, "maximum": 64},
        "magnitude": {"type": "number", "minimum": 0, "maximum": 1},
        # The seed keys the 64-bit Philox generator.
        "seed": {"type": "integer", "minimum": 0, "maximum": 2 ** 64 - 1},
        "trials": {"type": "integer", "minimum": 1, "maximum": 100000},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "tower": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "levels": {"type": "integer", "minimum": 2, "maximum": 32},
                "base": {"type": "number", "minimum": 0},
                "ratio": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            },
        },
        "source": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "model": {"enum": ["translation", "inversion"]},
                "order": {"type": "integer", "minimum": 1, "maximum": 24},
            },
        },
        "corner_corank": {"type": "integer", "minimum": 0, "maximum": 64},
        "graded_data": {
            "type": "object",
            "required": ["dual_unitaries", "seeds"],
            "additionalProperties": False,
            "properties": {
                # One dual unitary per character (trivial first), one seed
                # per group element.
                "dual_unitaries": {"type": "array", "items": MATRIX_SCHEMA},
                "seeds": {"type": "array", "items": MATRIX_SCHEMA},
            },
        },
    },
}


def _graded_input(graded_data: dict, group: FiniteGroup):
    """Decode ``graded_data`` into its grading and its stack of seeds.  Each
    list must hold one square matrix per group element, all of one
    dimension, and the dual unitaries must define a grading (the trivial
    character acting as the identity, the dual action a homomorphism);
    otherwise ScenarioError names the offending entry."""
    stacks = []
    dim = None
    for key in ("dual_unitaries", "seeds"):
        mats = graded_data[key]
        if len(mats) != group.order:
            raise ScenarioError(
                f"/graded_data/{key}: {len(mats)} matrices, expected one per "
                f"element of {group.name} ({group.order})")
        for i, m in enumerate(mats):
            dim = len(m) if dim is None else dim
            if len(m) != dim or any(len(row) != dim for row in m):
                raise ScenarioError(f"/graded_data/{key}/{i}: expected a "
                                    f"square {dim}x{dim} matrix")
        stacks.append(np.array([[[complex(re, im) for re, im in row] for row in m]
                                for m in mats]))
    dual, seeds = stacks
    chars = character_table(group)
    try:
        algebra = GradedAlgebra(group=group, dim=dim, dual_unitaries=dual,
                                chars=chars)
    except ValueError as exc:
        raise ScenarioError(f"/graded_data/dual_unitaries: {exc}") from None
    return algebra, seeds


@dataclass
class Scenario:
    kind: str
    seed: int
    group: dict = field(default_factory=lambda: {"kind": "cyclic", "params": 3})
    dimension: int = 4
    magnitude: float = 0.01
    trials: int = 20
    tolerance: float = 1e-12
    tower: Optional[dict] = None
    source: Optional[dict] = None
    corner_corank: int = 1
    graded_data: Optional[dict] = None

    @staticmethod
    def from_dict(data: dict, **overrides) -> "Scenario":
        """The scenario of ``data`` with every override that is not None,
        checked by the schema; ``data`` itself is left alone."""
        data = copy.deepcopy(data)
        data.update((k, v) for k, v in overrides.items() if v is not None)
        validate_scenario(data)
        known = {f for f in Scenario.__dataclass_fields__}
        return Scenario(**{k: v for k, v in data.items() if k in known})

    @functools.cached_property
    def graded_model(self):
        """``group_of(group, graded=True, data=graded_data)``, looked up once
        per scenario rather than once per trial."""
        return group_of(self.group, graded=True, data=self.graded_data)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "seed": self.seed, "group": self.group,
               "dimension": self.dimension, "magnitude": self.magnitude,
               "trials": self.trials, "tolerance": self.tolerance}
        if self.tower:
            out["tower"] = self.tower
        if self.source:
            out["source"] = self.source
        if self.kind == "tracial":
            out["corner_corank"] = self.corner_corank
        if self.graded_data is not None:
            out["graded_data"] = self.graded_data
        return out


class ScenarioError(ValueError):
    pass


@functools.lru_cache(maxsize=None)
def _validator():
    """The schema's validator, with an integer only an int (Draft 2020-12
    also counts 2.0) and a number only a finite one (Python's JSON reader
    takes NaN and Infinity)."""
    import jsonschema
    base = jsonschema.Draft202012Validator
    checker = base.TYPE_CHECKER.redefine_many({
        "integer": lambda _, x: isinstance(x, int) and not isinstance(x, bool),
        "number": lambda _, x: not isinstance(x, bool) and (
            isinstance(x, int) or isinstance(x, float) and math.isfinite(x)),
    })
    return jsonschema.validators.extend(base, type_checker=checker)(SCENARIO_SCHEMA)


def _message(error) -> str:
    x = error.instance
    if isinstance(x, float) and not math.isfinite(x):
        return f"{x!r} is not a finite number"
    return error.message


def validate_scenario(data: dict):
    errors = sorted(_validator().iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        raise ScenarioError("scenario schema violations:" + "".join(
            f"\n/{'/'.join(str(p) for p in e.absolute_path)}: {_message(e)}"
            for e in errors))


def suite_scenarios(seed: int = 0, **overrides) -> List[Tuple[str, Scenario]]:
    """The default battery as (label, scenario) pairs, entry k of ``SUITE``
    at seed + k, with the ``overrides`` of ``Scenario.from_dict``."""
    entries = []
    for k, (label, (_, fields)) in enumerate(SUITE.items()):
        try:
            entries.append((label, Scenario.from_dict(fields, seed=seed + k,
                                                      **overrides)))
        except ScenarioError as exc:
            raise ScenarioError(f"suite entry {label}: {exc}") from None
    return entries


@functools.lru_cache(maxsize=32)
def _built(spec: str, graded: bool, data: Optional[str]):
    """The group a JSON group spec builds or, with ``graded``, a graded model
    over it: the one the JSON ``data`` describes (``_graded_input``), or
    else the regular one.  Each is built once per spec and data, since every
    trial of a scenario, and its check, asks for the same."""
    if not graded:
        spec = json.loads(spec)
        return make_group(spec["kind"], spec.get("params"))
    group = _built(spec, False, None)
    if data is None:
        algebra, values = regular_graded_model(group)
    else:
        algebra, values = _graded_input(json.loads(data), group)
    values.flags.writeable = False          # shared by every trial
    return algebra, values


def group_of(spec: dict, graded: bool = False, data: Optional[dict] = None):
    """The group of a JSON group spec or, with ``graded``, its graded model
    (algebra, values): the one ``data`` (a scenario's ``graded_data``)
    describes, or else the regular one.  Built once per spec and data."""
    return _built(json.dumps(spec, sort_keys=True), graded,
                  None if data is None else json.dumps(data, sort_keys=True))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Philox (counter-based) stream for one trial: key = scenario seed,
    counter advanced by trial * 2^40."""
    bg = np.random.Philox(key=np.uint64(seed))
    bg.advance(int(trial) * (1 << 40))
    return np.random.Generator(bg)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_skew(rng: np.random.Generator, n: int,
                corner: Optional[int] = None) -> np.ndarray:
    """A random skew-Hermitian n x n matrix of unit norm; with ``corner``
    its leading corner x corner block, normalized again.  The draw is that
    of the n x n matrix either way, so a trial that keeps only the block a
    quotient kills draws the same numbers as one that keeps it all."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (a - a.conj().T) / 2
    norm = operator_norm(k)
    if norm > 0:
        k = k / norm
    if corner is not None:
        k = k[:corner, :corner]
        norm = operator_norm(k)
        if norm > 0:
            k = k / norm
    return k


def _perm_parity(perm) -> int:
    return sum(a > b for a, b in itertools.combinations(perm, 2)) & 1


def _irrep_menu(kind: str, params) -> List:
    """List of (dim, fn) homomorphism pieces for the supported group kinds;
    fn maps an element index to a matrix."""
    if kind == "cyclic":
        d = int(params)
        return [(1, lambda g, a=a: np.array([[np.exp(2j * np.pi * a * g / d)]]))
                for a in range(d)]
    if kind == "dihedral":
        n = int(params)
        menu = [(1, lambda g: np.eye(1, dtype=complex)),
                (1, lambda g: np.array([[(-1.0 + 0j) ** (g // n)]]))]
        for k in range(1, n):
            def two_dim(g, k=k):
                t = 2 * np.pi * k * (g % n) / n
                m = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]],
                             dtype=complex)
                return m @ np.diag([1, -1]).astype(complex) if g // n else m
            menu.append((2, two_dim))
        return menu
    if kind == "symmetric":
        m = int(params)
        elems = sorted(itertools.permutations(range(m)))
        return [(1, lambda g: np.eye(1, dtype=complex)),
                (1, lambda g: np.array([[(-1.0 + 0j) ** _perm_parity(elems[g])]])),
                # The natural representation: e_j goes to e_p(j).
                (m, lambda g: np.eye(m, dtype=complex)[:, list(elems[g])])]
    if kind == "product":
        spec_a, spec_b = params
        nb = group_of({"kind": spec_b[0], "params": spec_b[1]}).order
        return [(da * db, lambda g, fa=fa, fb=fb: np.kron(fa(g // nb), fb(g % nb)))
                for da, fa in _irrep_menu(spec_a[0], spec_a[1])
                for db, fb in _irrep_menu(spec_b[0], spec_b[1])]
    raise ScenarioError(f"no representation menu for group kind {kind!r}")


def exact_rep_values(group_spec: dict, group: FiniteGroup, dim: int,
                     rng: np.random.Generator) -> np.ndarray:
    """An exact (to rounding) unitary representation of the group on C^dim:
    a random direct sum of menu pieces conjugated by a random unitary."""
    menu = _irrep_menu(group_spec["kind"], group_spec.get("params"))
    chosen = []
    remaining = dim
    while remaining > 0:
        options = [item for item in menu if item[0] <= remaining]
        idx = int(rng.integers(0, len(options)))
        chosen.append(options[idx])
        remaining -= options[idx][0]
    v = random_unitary(rng, dim)
    full = np.zeros((group.order, dim, dim), dtype=complex)
    at = 0
    for k, fn in chosen:
        full[:, at:at + k, at:at + k] = [fn(g) for g in range(group.order)]
        at += k
    return np.stack([v @ f @ v.conj().T for f in full])


def nontrivial_action_rep(group_spec: dict, group: FiniteGroup, dim: int,
                          rng: np.random.Generator, attempts: int = 16) -> np.ndarray:
    """An exact representation whose adjoint action is nontrivial: some
    non-identity element is kept away from the scalars.  A scalar action
    makes coboundary mismatches vanish identically, which degenerates the
    cocycle scenarios."""
    for _ in range(attempts):
        vals = exact_rep_values(group_spec, group, dim, rng)
        others = np.delete(vals, group.identity, axis=0)
        means = np.trace(others, axis1=1, axis2=2) / dim
        dist = largest_norm(others - means[:, None, None] * np.eye(dim), 0.3)[0]
        if dist > 0.3:
            return vals
    raise ScenarioError(
        f"could not draw a nontrivial action for {group.name} at dim {dim}")


def perturb_rep_values(values: np.ndarray, magnitude: float,
                       rng: np.random.Generator, skip_identity: int = 0,
                       draw: Optional[int] = None) -> np.ndarray:
    """Multiply each value by exp(magnitude * K) with K a ``random_skew``,
    drawn in the order of the values and exponentiated in one stacked call;
    with ``draw`` each K is the corner of a draw of that size (see
    ``random_skew``).  The identity slot is left alone so the family stays
    unital."""
    out = np.array(values, dtype=complex)
    n = out.shape[1]
    moved = [g for g in range(len(out)) if g != skip_identity]
    k = np.array([random_skew(rng, n) if draw is None else random_skew(rng, draw, n)
                  for _ in moved]).reshape(-1, n, n)
    out[moved] = out[moved] @ exp_skew(magnitude * k)
    return out


@dataclass
class TrialReport:
    trial: int
    measured: dict
    checks: list        # (name, measured, bound, slack)
    wall_time: float
    rows: list          # (iteration, defect, distance)
    error: Optional[str] = None     # the message of a trial that raised

    @property
    def bounds(self) -> dict:
        return {name: bound for name, _, bound, _ in self.checks}

    @property
    def passes(self) -> dict:
        if self.error is not None:
            return {"completed": False}
        return {name: bool(value <= bound + slack)
                for name, value, bound, slack in self.checks}

    def all_passed(self) -> bool:
        return all(self.passes.values())

    def failures(self) -> List[str]:
        if self.error is not None:
            return [f"trial {self.trial}: did not complete: {self.error}"]
        passes = self.passes
        return [f"trial {self.trial}: bound {name} violated (measured "
                f"{value:.10g} > bound {bound:.10g})"
                for name, value, bound, _ in self.checks if not passes[name]]


def _trial_runner(body):
    """Decorator turning a trial body ``body(s, rng) -> (measured, checks,
    rows)`` into a runner ``(s, trial) -> TrialReport``: it draws the
    trial's generator, times the body and reports its checks, each a
    (name, measured, bound, slack) row that passes iff measured <= bound +
    slack."""
    @functools.wraps(body)
    def run(s: Scenario, trial: int) -> TrialReport:
        rng = trial_rng(s.seed, trial)
        start = time.perf_counter()
        measured, checks, rows = body(s, rng)
        return TrialReport(trial, measured, checks,
                           time.perf_counter() - start, list(rows))
    return run


# ---------------------------------------------------------------------------
# Per-kind trial bodies.

def _two_block_tower(group, unitaries):
    """Two copies of M_dim, each acted on by Ad(unitaries[g]); the quotient
    kills the first block.  Used for the kappa-pinned variants of the
    correctors."""
    perms = np.tile(np.arange(2, dtype=np.intp), (group.order, 1))
    algebra = GAlgebra(blocks=(len(unitaries[0]),) * 2, group=group, perms=perms,
                       unitaries=tuple((u, u) for u in unitaries))
    return Tower(algebra=algebra, ideals=(frozenset(), frozenset({0})))


def _iterated_checks(word, c, result, tol, first_step):
    """Measured figures and checks of an iterated corrector (the defect or
    mismatch ``word`` with constant ``c``) from an input off by r, the first
    row of its trace: one step within c r^2 and 2r, the last iterate within
    tol and 2r/(1-c r), and a pinned quotient kept to rounding.  The first
    step is read off the trace; ``first_step()`` measures it for an input
    already within tolerance, which the corrector leaves alone."""
    r = result.trace[0][1]
    step, step_distance = result.trace[1][1:] if result.iterations else first_step()
    final, final_distance = result.trace[-1][1:]
    measured = {"r": r, f"one_step_{word}": step, "one_step_distance": step_distance,
                f"final_{word}": final, "final_distance": final_distance,
                "iterations": result.iterations}
    checks = [(f"one_step_{word}", step, c * r ** 2, 1e-10),
              ("one_step_distance", step_distance, 2 * r, 1e-10),
              (f"final_{word}", final, tol, 0.0),
              ("final_distance", final_distance,
               2 * r / (1 - c * r) if r < 1 / c else float("inf"), 1e-9)]
    if result.quotient_drift is not None:
        measured["quotient_drift"] = result.quotient_drift
        checks.append(("quotient_drift", result.quotient_drift, 1e-12, 0.0))
    return measured, checks


@_trial_runner
def run_rep_trial(s: Scenario, rng):
    group = group_of(s.group)
    if s.tower:
        dim = s.dimension
        tower = _two_block_tower(group, [np.eye(dim)] * group.order)
        base = exact_rep_values(s.group, group, dim, rng)
        # Only the first block, which the quotient kills, is perturbed.
        vals = Blocks((np.stack([perturb_rep_values(base, s.magnitude, rng,
                                                    draw=2 * dim), base], axis=1),))
        quotient = lambda a: tower.project_to_top(0, a)
    else:
        vals = exact_rep_values(s.group, group, s.dimension, rng)
        vals = perturb_rep_values(vals, s.magnitude, rng)
        quotient = None
    rep = ApproxRep(group, vals, unitary=True, unital=True)
    result = correct_to_rep(rep, tol=s.tolerance, quotient=quotient)

    def first_step():
        stepped = one_step(rep)
        return stepped.defect(), rep.distance_to(stepped)

    measured, checks = _iterated_checks("defect", 17, result, s.tolerance,
                                        first_step)
    checks.append(("iterations", result.iterations, 20, 0))
    return measured, checks, result.trace


@_trial_runner
def run_cocycle_trial(s: Scenario, rng):
    group = group_of(s.group)
    dim = s.dimension
    action = nontrivial_action_rep(s.group, group, dim, rng)
    if s.tower:
        # Two copies of M_dim under the same action; the quotient kills the
        # first, and only that block of the seed is moved.
        tower = _two_block_tower(group, action)
        algebra = tower.algebra
        quotient = lambda a: tower.project_to_top(0, a)
        v = np.stack([random_unitary(rng, dim), random_unitary(rng, dim)])
        v0 = v.copy()
        v0[0] = v[0] @ exp_skew(s.magnitude * random_skew(rng, 2 * dim, dim))
        v, v0 = Blocks((v,)), Blocks((v0,))
    else:
        algebra = matrix_algebra(dim, group, list(action))
        quotient = None
        v = random_unitary(rng, dim)
        v0 = v @ exp_skew(s.magnitude * random_skew(rng, dim))
    w = coboundary(algebra, v)
    result = trivialize(w, v0, tol=s.tolerance, quotient=quotient)

    def first_step():
        z = one_step_cobound(w, v0)
        return w.mismatch(z)[0], operator_norm(z - v0)

    measured, checks = _iterated_checks("mismatch", 10, result, s.tolerance,
                                        first_step)
    return measured, checks, result.trace


def build_lift_scenario(s: Scenario, rng: np.random.Generator):
    """A tower of stage algebras, each with a conjugated copy of a known
    exact covariant representation, with geometrically decaying conjugation
    angles; the top stage is the exact answer."""
    src = s.source or {"model": "translation", "order": 3}
    tower_spec = s.tower or {"levels": 8, "base": 0.2, "ratio": 0.2}
    levels = int(tower_spec.get("levels", 8))
    base = float(tower_spec.get("base", 0.2))
    ratio = float(tower_spec.get("ratio", 0.2))
    n = int(src.get("order", 3))
    model = src.get("model", "translation")
    H = cyclic_group(n)
    if model == "translation":
        G = cyclic_group(n)
        source_action = translation_source_action(n, G, H)
        dstage = np.diag(np.exp(2j * np.pi / n) ** (-np.arange(n)))
        stage_unitaries = [np.linalg.matrix_power(dstage, a) for a in range(n)]
    elif model == "inversion":
        G = cyclic_group(2)
        perm = np.stack([np.arange(n), (-np.arange(n)) % n]).astype(np.intp)
        source_action = SourceAction(group=G, source=H, perm=perm,
                                     scalar=np.ones((2, n), dtype=complex))
        # The flip sends e_y to e_(-y).
        flip = np.eye(n, dtype=complex)[:, perm[1]]
        stage_unitaries = [np.eye(n, dtype=complex), flip]
    else:
        raise ScenarioError(f"unknown lift source model {model!r}")
    shift = np.roll(np.eye(n), 1, axis=0).astype(complex)
    stage_rep = np.stack([np.linalg.matrix_power(shift, k) for k in range(n)])

    perms = np.tile(np.arange(levels, dtype=np.intp), (G.order, 1))
    unitaries = tuple((stage_unitaries[g],) * levels for g in range(G.order))
    algebra = GAlgebra(blocks=(n,) * levels, group=G, perms=perms, unitaries=unitaries)
    ideals = tuple(frozenset(range(j)) for j in range(levels))
    tower = Tower(algebra=algebra, ideals=ideals)

    # Stage j is conjugated by an angle base * ratio^j; the top is exact.
    angles = np.zeros((levels, n, n), dtype=complex)
    for j in range(levels - 1):
        angles[j] = base * ratio ** j * random_skew(rng, n)
    q = exp_skew(angles)
    seed_vals = q @ stage_rep[:, None] @ adjoint(q)
    seed = GHom(source=H, values=Blocks((seed_vals,)), level=0)
    phi = GHom(source=H, values=tower.project_to_top(0, seed.values),
               level=tower.top)
    return tower, phi, source_action, seed


@_trial_runner
def run_lift_trial(s: Scenario, rng):
    tower, phi, source_action, seed = build_lift_scenario(s, rng)
    result = lift_group_rep(tower, phi, source_action, seed=seed,
                            tol=s.tolerance)
    measured = {
        "level": result.level,
        "rep_defect": result.rep.mult_defect(),
        "equivariance": result.equivariance_residual,
        "projection": result.projection_residual,
        "iterations": result.correction.iterations,
    }
    checks = [(name, measured[name], 1e-11, 0.0)
              for name in ("rep_defect", "equivariance", "projection")]
    # The lift is found below the top, whose stage is exact by construction.
    checks.append(("finite_level", result.level, tower.top - 1, 0))
    return measured, checks, result.correction.trace


def build_rokhlin_scenario(d: int, block: int, magnitude: float,
                           rng: np.random.Generator, corank: int = 0):
    """Z/d acting on M_n, n = d * block + corank, by cyclically shifting d
    blocks of size ``block`` and fixing the last ``corank`` coordinates;
    the exact partition puts p_g on the g-th block (so it sums to 1 only
    for corank 0), and the seeds are its randomly rotated copies."""
    G = cyclic_group(d)
    n = d * block + corank
    shift = np.kron(np.roll(np.eye(d), 1, axis=0), np.eye(block))
    unitaries = []
    for g in range(d):
        u = np.zeros((n, n), dtype=complex)
        u[:d * block, :d * block] = np.linalg.matrix_power(shift, g)
        u[d * block:, d * block:] = np.eye(corank)
        unitaries.append(u)
    algebra = matrix_algebra(n, G, unitaries)
    exact = np.zeros((d, n, n), dtype=complex)
    for g in range(d):
        exact[g, g * block:(g + 1) * block, g * block:(g + 1) * block] = np.eye(block)
    # Conjugating each seed by its own rotation keeps it an exact projection
    # while breaking orthogonality, equivariance and the unit sum.
    q = exp_skew(magnitude * np.stack([random_skew(rng, n) for _ in range(d)]))
    seeds = q @ exact @ adjoint(q)
    return algebra, exact, seeds


def _residual_checks(result, names):
    return [(f"residual_{k}", result.residuals[k], 1e-12, 0.0) for k in names]


@_trial_runner
def run_rokhlin_trial(s: Scenario, rng):
    d = int(s.group.get("params", 2))
    block = max(1, s.dimension // d)
    algebra, exact, seeds = build_rokhlin_scenario(d, block, s.magnitude, rng)
    result = stabilize_partition(algebra, seeds)
    measured = {
        "seed_defect": result.seed_defects.overall,
        "displacement": result.displacement,
        **{f"residual_{k}": v for k, v in result.residuals.items()},
    }
    rows = [(0, max(result.residuals.values()), result.displacement)]
    return measured, _residual_checks(result, result.residuals), rows


@_trial_runner
def run_tracial_trial(s: Scenario, rng):
    d = int(s.group.get("params", 2))
    block = max(1, (s.dimension - s.corner_corank) // d)
    corank = int(s.corner_corank)
    algebra, _, seeds = build_rokhlin_scenario(d, block, s.magnitude, rng, corank)
    n = algebra.dim
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = y @ y.conj().T
    x = x / operator_norm(x)
    result = stabilize_tracial_partition(algebra, seeds, x)
    measured = {
        "displacement": result.displacement,
        "witness_compression": result.witness_compression_norm,
        "complement_rank": result.complement_rank,
        **{f"residual_{k}": v for k, v in result.residuals.items()},
    }
    checks = _residual_checks(result, ("projection", "self_adjoint", "orthogonality",
                                       "equivariance", "unit_sum"))
    rows = [(0, max(result.residuals.values()), result.displacement)]
    return measured, checks, rows


@_trial_runner
def run_graded_trial(s: Scenario, rng):
    algebra, values = s.graded_model
    if s.graded_data is None:
        values = perturb_rep_values(values, s.magnitude, rng,
                                    skip_identity=algebra.group.identity)
    result = graded_correct(algebra, values, tol=s.tolerance)
    measured = {
        "final_defect": result.rep.defect(),
        "distance": result.distance,
        "component_residual": max(result.component_residuals),
        "iterations": result.iterations,
    }
    cap = 2 * (6 * EPS0) / (1 - 17 * 6 * EPS0)
    checks = [("final_defect", measured["final_defect"], s.tolerance, 0.0),
              ("component_residual", measured["component_residual"], 1e-12, 0.0),
              ("distance", measured["distance"], cap, 1e-10)]
    return measured, checks, result.trace


@_trial_runner
def run_integral_estimate_trial(s: Scenario, rng):
    group = group_of(s.group)
    n = s.dimension
    theta = 2 * np.arcsin(min(s.magnitude, 1.0) / 2)
    values = exp_skew(theta * np.stack([random_skew(rng, n)
                                        for _ in range(group.order)]))
    lhs, bound, r, avg_norm = verify_integral_estimate(group, values)
    measured = {"r": r, "lhs": lhs, "avg_norm": avg_norm}
    checks = [("integral_estimate", lhs, bound, 1e-10),
              ("avg_contractive", avg_norm, 1.0, 1e-12)]
    return measured, checks, [(0, lhs, 0.0)]


TRIAL_RUNNERS: Dict[str, Callable[[Scenario, int], TrialReport]] = {
    "rep": run_rep_trial,
    "cocycle": run_cocycle_trial,
    "lift": run_lift_trial,
    "rokhlin": run_rokhlin_trial,
    "tracial": run_tracial_trial,
    "graded": run_graded_trial,
    "integral_estimate": run_integral_estimate_trial,
}


@dataclass
class ScenarioReport:
    scenario: Scenario
    trials: list
    all_passed: bool
    failures: list


def _check_scenario(s: Scenario):
    """Raise ScenarioError for what the schema cannot see: group params
    that do not build a group, a group or dimension the kind does not
    support, and graded_data that is not a grading of the group.  Run
    before any trial, since a ScenarioError inside a trial would be
    recorded as a failed trial instead of rejecting the scenario."""
    if s.kind == "lift":            # its groups come from the source model
        return
    spec = s.group
    if s.kind in ("rokhlin", "tracial"):
        if spec["kind"] != "cyclic":
            raise ScenarioError(f"/group/kind: {s.kind} scenarios require a "
                                f"cyclic group, got {spec['kind']!r}")
        spec = {"params": 2, **spec}
    try:
        group = group_of(spec)
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise ScenarioError(f"/group/params: {spec.get('params')!r} does not "
                            f"build a {spec['kind']} group ({exc})") from None
    if s.kind == "graded" and not group.is_abelian():
        raise ScenarioError(f"/group: graded scenarios require an abelian "
                            f"group, got {group.name}")
    if s.kind == "graded":
        s.graded_model                  # builds the model, or checks graded_data
    # Every action of the trivial group, and every action on C^1, is
    # scalar, so no trial could draw the nontrivial action it needs.
    if s.kind == "cocycle" and group.order == 1:
        raise ScenarioError(f"/group: cocycle scenarios need a nontrivial "
                            f"group, got {group.name}")
    if s.kind == "cocycle" and s.dimension == 1:
        raise ScenarioError("/dimension: cocycle scenarios need dimension at "
                            "least 2")


def run_scenario(scenario: Scenario, out_dir) -> ScenarioReport:
    """Run all trials of a scenario, write trace.csv and report.json into
    ``out_dir``, and return the collected report.  A scenario the trials
    cannot run raises ScenarioError before anything is written."""
    _check_scenario(scenario)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = TRIAL_RUNNERS[scenario.kind]
    reports = []
    failures = []
    for trial in range(scenario.trials):
        try:
            rep = runner(scenario, trial)
        except (ValueError, RuntimeError) as exc:
            # Precondition or convergence failures are certification
            # failures, not crashes: record and keep running.
            rep = TrialReport(trial, {"error": str(exc)}, [], 0.0, [],
                              error=str(exc))
        reports.append(rep)
        failures.extend(rep.failures())
    lines = ["trial,iteration,defect,distance"]
    for rep in reports:
        for it, defect, dist in rep.rows:
            lines.append(f"{rep.trial},{it},{float(defect)!r},{float(dist)!r}")
    (out / "trace.csv").write_text("\n".join(lines) + "\n")
    payload = {
        "scenario": scenario.to_dict(),
        "trials": [
            {"trial": r.trial, "measured": _jsonify(r.measured),
             "bounds": _jsonify(r.bounds), "passes": r.passes,
             "wall_time": r.wall_time}
            for r in reports],
        "all_passed": not failures,
        "failures": failures,
    }
    (out / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    return ScenarioReport(scenario=scenario, trials=reports,
                          all_passed=not failures, failures=failures)


def _jsonify(d: dict) -> dict:
    return {k: v.item() if isinstance(v, np.generic) else v for k, v in d.items()}
