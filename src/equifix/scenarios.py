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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .groups import FiniteGroup, cyclic_group, make_group
from .matfun import (Blocks, _qr, _svd_norms, adjoint, exp_skew, largest_norm,
                     read_only)
from .galgebra import GAlgebra, Tower, matrix_algebra
from .repcorrect import CONTRACTION as REP_CONTRACTION
from .repcorrect import (EPS0, ApproxRep, SourceAction, correct_to_rep,
                         lift_group_rep, one_step, translation_source_action)
from .cocycles import CONTRACTION as COCYCLE_CONTRACTION
from .cocycles import (coboundary, mismatch, one_step_cobound, trivialize,
                       verify_integral_estimate)
from .relations import stabilize_partition, stabilize_tracial_partition
from .graded import GradedAlgebra, graded_correct, regular_graded_model

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
    try:
        algebra = GradedAlgebra(group=group, dual_unitaries=dual)
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
        return Scenario(**data)

    @functools.cached_property
    def graded_model(self):
        """``_graded`` of the group and graded_data, keyed by their JSON text
        and looked up once per scenario rather than once per trial."""
        data = self.graded_data
        return _graded(_key(self.group), None if data is None else _key(data))

    def to_dict(self) -> dict:
        """Every field that is not None, ``corner_corank`` only for tracial;
        ``fields``, since ``vars`` holds the cached ``graded_model`` too."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None
                and (f.name != "corner_corank" or self.kind == "tracial")}


class ScenarioError(ValueError):
    pass


# The schema's JSON types: an integer is an int (Draft 2020-12 also counts
# 2.0) and a number a finite one (Python's JSON reader takes NaN and Infinity).
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "number": lambda x: not isinstance(x, bool) and (
        isinstance(x, int) or isinstance(x, float) and math.isfinite(x)),
}

# The Draft 2020-12 keywords that the checker implements, each with the type
# of instance it applies to (None: every instance).
_KEYWORD_TYPES = {"type": None, "enum": None, "minimum": "number", "maximum": "number",
                  "exclusiveMinimum": "number", "minItems": "array", "maxItems": "array",
                  "items": "array", "required": "object", "properties": "object",
                  "additionalProperties": "object"}

# jsonschema's words for an instance that fails a keyword on its own, else a
# false value.  The schema's enums list strings, for which == is JSON's.
_FAILS = {
    "type": lambda x, t: not _TYPES[t](x) and f"is not of type {t!r}",
    "enum": lambda x, v: x not in v and f"is not one of {v!r}",
    "minimum": lambda x, v: x < v and f"is less than the minimum of {v!r}",
    "maximum": lambda x, v: x > v and f"is greater than the maximum of {v!r}",
    "exclusiveMinimum": lambda x, v: x <= v and (
        f"is less than or equal to the minimum of {v!r}"),
    "minItems": lambda x, v: len(x) < v and (
        "should be non-empty" if v == 1 else "is too short"),
    "maxItems": lambda x, v: len(x) > v and (
        "is expected to be empty" if v == 0 else "is too long"),
}


def _violations(x, schema: dict, path: tuple = ()):
    """(path, message) for each keyword of ``schema`` that ``x`` breaks, in
    jsonschema's order (depth first, the schema's keyword order) and words,
    but a non-finite float is said not to be a finite number."""
    for key, v in schema.items():
        if (applies := _KEYWORD_TYPES[key]) and not _TYPES[applies](x):
            continue
        if key == "properties":
            for name, sub in v.items():
                if name in x:
                    yield from _violations(x[name], sub, (*path, name))
        elif key == "items":
            for i, item in enumerate(x):
                yield from _violations(item, v, (*path, i))
        elif key == "required":
            yield from ((path, f"{n!r} is a required property") for n in v if n not in x)
        elif key == "additionalProperties":
            extras = sorted(set(x) - set(schema.get("properties", ())), key=str)
            if extras and v is False:
                yield path, ("Additional properties are not allowed ("
                             f"{', '.join(map(repr, extras))} "
                             f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif words := _FAILS[key](x, v):
            if isinstance(x, float) and not math.isfinite(x):
                words = "is not a finite number"
            yield path, f"{x!r} {words}"


def validate_scenario(data: dict):
    errors = sorted(_violations(data, SCENARIO_SCHEMA), key=lambda e: e[0])
    if errors:
        raise ScenarioError("scenario schema violations:" + "".join(
            f"\n/{'/'.join(map(str, path))}: {message}" for path, message in errors))


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


# Each cache of models that do not depend on the trial (a group's menu, the
# pinned rep's tower, the Rokhlin and lift models) keeps its last MODELS.
MODELS = 8
_key = functools.partial(json.dumps, sort_keys=True)     # a JSON spec's cache key


@functools.lru_cache(maxsize=32)
def _built(spec: str) -> FiniteGroup:
    """The group a JSON group spec builds, once per spec, since every trial
    of a scenario, and its check, asks for the same."""
    spec = json.loads(spec)
    return make_group(spec["kind"], spec.get("params"))


def group_of(spec: dict) -> FiniteGroup:
    """The group of a JSON group spec, built once per spec."""
    return _built(_key(spec))


@functools.lru_cache(maxsize=MODELS)
def _graded(spec: str, data: Optional[str]):
    """The graded model (algebra, values) over a JSON group spec's group: the
    one JSON ``data`` describes (``_graded_input``), else the regular one."""
    group = _built(spec)
    if data is None:
        algebra, values = regular_graded_model(group)
    else:
        algebra, values = _graded_input(json.loads(data), group)
    return algebra, read_only(values)          # shared by every trial


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Philox (counter-based) stream for one trial: key = scenario seed,
    counter set to trial * 2^40, a 256-bit integer in 64-bit words, low
    first."""
    c = int(trial) << 40
    return np.random.Generator(np.random.Philox(
        counter=[c & (2 ** 64 - 1), c >> 64, 0, 0], key=np.uint64(seed)))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = _qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_skew(rng: np.random.Generator, n: int, corner: Optional[int] = None,
                count: Optional[int] = None) -> np.ndarray:
    """A random skew-Hermitian n x n matrix of unit norm; with ``corner``
    its leading corner x corner block, normalized again.  The draw is that
    of the n x n matrix either way, so a trial that keeps only the block a
    quotient kills draws the same numbers as one that keeps it all.  With
    ``count``, a (count, ...) stack of such matrices from one draw, holding
    the numbers ``count`` separate calls would draw, in their order."""
    a = rng.standard_normal((1 if count is None else count, 2, n, n))
    a = a[:, 0] + 1j * a[:, 1]
    k = (a - adjoint(a)) / 2
    for size in (n,) if corner is None else (n, corner):
        k = k[:, :size, :size]
        norm = _svd_norms(k)[:, None, None]
        k = k / np.where(norm > 0, norm, 1.0)
    return k[0] if count is None else k


@functools.lru_cache(maxsize=MODELS)
def _menu(spec: str) -> tuple:
    """The pieces ``exact_rep_values`` sums for a JSON group spec:
    homomorphisms into U(k), each the read-only (|G|, k, k) stack of its
    values on the group elements."""
    spec = json.loads(spec)
    kind, params = spec["kind"], spec.get("params")
    if kind == "cyclic":
        d = int(params)
        return read_only(tuple(np.exp(1j * (2 * np.pi * np.arange(d)[:, None]
                                             * np.arange(d) / d))[..., None, None]))
    if kind == "dihedral":
        n = int(params)
        g = np.arange(2 * n)
        flip = np.where(g // n, -1.0, 1.0)
        menu = [np.ones((2 * n, 1, 1), dtype=complex), flip[:, None, None] + 0j]
        for k in range(1, n):
            # The rotation by t, times diag(1, -1) on the reflections.
            t = 2 * np.pi * k * (g % n) / n
            c, s = np.cos(t), np.sin(t)
            menu.append(np.stack([c, -s * flip, s, c * flip], -1).reshape(-1, 2, 2)
                        .astype(complex))
        return read_only(tuple(menu))
    if kind == "symmetric":
        m = int(params)
        elems = np.array(sorted(itertools.permutations(range(m))))
        sign = np.array([(-1.0) ** sum(a > b for a, b in itertools.combinations(p, 2))
                         for p in elems.tolist()])
        # The natural representation: e_j goes to e_p(j).
        return read_only((np.ones((len(elems), 1, 1), dtype=complex),
                           sign[:, None, None] + 0j,
                           np.eye(m, dtype=complex)[:, elems].transpose(1, 0, 2)))
    if kind == "product":
        menu_a, menu_b = (_menu(_key({"kind": k, "params": p})) for k, p in params)
        nb = len(menu_b[0])
        g = np.arange(len(menu_a[0]) * nb)
        return read_only(tuple(
            (a[g // nb, :, None, :, None] * b[g % nb, None, :, None, :]).reshape(
                len(g), a.shape[1] * b.shape[1], -1) for a in menu_a for b in menu_b))
    raise ScenarioError(f"no representation menu for group kind {kind!r}")


def exact_rep_values(group_spec: dict, group: FiniteGroup, dim: int,
                     rng: np.random.Generator) -> np.ndarray:
    """An exact (to rounding) unitary representation of the group on C^dim:
    a random direct sum of menu pieces conjugated by a random unitary."""
    menu = _menu(_key(group_spec))
    full = np.zeros((group.order, dim, dim), dtype=complex)
    at = 0
    while at < dim:
        options = [piece for piece in menu if piece.shape[1] <= dim - at]
        piece = options[int(rng.integers(0, len(options)))]
        k = piece.shape[1]
        full[:, at:at + k, at:at + k] = piece
        at += k
    v = random_unitary(rng, dim)
    return v @ full @ v.conj().T


def nontrivial_action_rep(group_spec: dict, group: FiniteGroup, dim: int,
                          rng: np.random.Generator) -> np.ndarray:
    """An exact representation whose adjoint action is nontrivial: some
    non-identity element is kept away from the scalars, in the first of 16
    draws that does.  A scalar action makes coboundary mismatches vanish
    identically, which degenerates the cocycle scenarios."""
    for _ in range(16):
        vals = exact_rep_values(group_spec, group, dim, rng)
        others = np.delete(vals, group.identity, axis=0)
        means = np.trace(others, axis1=1, axis2=2) / dim
        dist = largest_norm(others - means[:, None, None] * np.eye(dim), 0.3)[0]
        if dist > 0.3:
            return vals
    raise ScenarioError(
        f"could not draw a nontrivial action for {group.name} at dim {dim}")


def perturb_rep_values(values: np.ndarray, magnitude: float,
                       rng: np.random.Generator,
                       draw: Optional[int] = None) -> np.ndarray:
    """Multiply each value by exp(magnitude * K), the Ks drawn by one counted
    ``random_skew`` call in the order of the values and exponentiated in one
    stacked call; with ``draw`` each K is the corner of a draw of that size.
    The identity slot is left alone so the family stays unital."""
    out = np.array(values, dtype=complex)
    n = out.shape[1]
    moved = np.arange(1, len(out))          # all but the identity, index 0
    k = random_skew(rng, draw or n, None if draw is None else n, count=len(moved))
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

def _copies_tower(group, unitaries, levels=2):
    """``levels`` copies of M_n, each acted on by Ad(unitaries[g]); level j
    kills the first j blocks.  Two levels make the pinned variants of the
    correctors, and the lift's tower has one level per stage."""
    perms = np.tile(np.arange(levels, dtype=np.intp), (group.order, 1))
    algebra = GAlgebra(blocks=(len(unitaries[0]),) * levels, group=group,
                       perms=perms, unitaries=tuple((u,) * levels for u in unitaries))
    return Tower(algebra=algebra,
                 ideals=tuple(frozenset(range(j)) for j in range(levels)))


@functools.lru_cache(maxsize=MODELS)
def _identity_tower(spec: str, dim: int) -> Tower:
    """The pinned rep scenario's two-block tower under the trivial action."""
    group = _built(spec)
    return read_only(_copies_tower(group, [np.eye(dim)] * group.order))


def _iterated_checks(word, c, result, tol, first_step):
    """Measured figures and checks of an iterated corrector (the defect or
    mismatch ``word`` with constant ``c``) from an input off by r, the first
    row of its trace: one step within c r^2 and 2r, the last iterate within
    tol and 2r/(1-c r), and a pinned quotient's blocks kept.  The first
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
    if s.tower is not None:
        dim = s.dimension
        tower = _identity_tower(_key(s.group), dim)
        base = exact_rep_values(s.group, group, dim, rng)
        # Only the first block, which the quotient kills, is perturbed.
        vals = Blocks((np.stack([perturb_rep_values(base, s.magnitude, rng,
                                                    draw=2 * dim), base], axis=1),))
        pin = (tower, 0)
    else:
        vals = exact_rep_values(s.group, group, s.dimension, rng)
        vals = perturb_rep_values(vals, s.magnitude, rng)
        pin = None
    rep = ApproxRep(group, vals, unitary=True, unital=True)
    result = correct_to_rep(rep, tol=s.tolerance, pin=pin)

    def first_step():
        stepped = one_step(rep)
        return stepped.defect(), rep.distance_to(stepped)

    measured, checks = _iterated_checks("defect", REP_CONTRACTION, result,
                                        s.tolerance, first_step)
    checks.append(("iterations", result.iterations, 20, 0))
    return measured, checks, result.trace


@_trial_runner
def run_cocycle_trial(s: Scenario, rng):
    group = group_of(s.group)
    dim = s.dimension
    action = nontrivial_action_rep(s.group, group, dim, rng)
    if s.tower is not None:
        # Two copies of M_dim under the same action; the quotient kills the
        # first, and only that block of the seed is moved.
        tower = _copies_tower(group, action)
        algebra, pin = tower.level(0), (tower, 0)
        v = np.stack([random_unitary(rng, dim), random_unitary(rng, dim)])
        v0 = v.copy()
        v0[0] = v[0] @ exp_skew(s.magnitude * random_skew(rng, 2 * dim, dim))
        v, v0 = Blocks((v,)), Blocks((v0,))
    else:
        algebra, pin = matrix_algebra(dim, group, list(action)), None
        v = random_unitary(rng, dim)
        v0 = v @ exp_skew(s.magnitude * random_skew(rng, dim))
    w = coboundary(algebra, v)
    result = trivialize(w, v0, tol=s.tolerance, pin=pin)

    def first_step():
        z = one_step_cobound(w, v0)
        return mismatch(w, z)[0], largest_norm(z - v0)[0]

    measured, checks = _iterated_checks("mismatch", COCYCLE_CONTRACTION, result,
                                        s.tolerance, first_step)
    return measured, checks, result.trace


@functools.lru_cache(maxsize=MODELS)
def _lift_model(model: str, n: int, levels: int):
    """The lift's tower (``levels`` stages of M_n), source action and stage
    representation, which depend on the source model, its order and the
    level count alone."""
    if model == "translation":
        source_action = translation_source_action(n)
        dstage = np.diag(np.exp(2j * np.pi / n) ** (-np.arange(n)))
        stage_unitaries = [np.linalg.matrix_power(dstage, a) for a in range(n)]
    elif model == "inversion":
        perm = np.stack([np.arange(n), (-np.arange(n)) % n]).astype(np.intp)
        source_action = SourceAction(group=cyclic_group(2), source=cyclic_group(n),
                                     perm=perm, scalar=np.ones((2, n), dtype=complex))
        # The flip sends e_y to e_(-y).
        flip = np.eye(n, dtype=complex)[:, perm[1]]
        stage_unitaries = [np.eye(n, dtype=complex), flip]
    else:
        raise ScenarioError(f"unknown lift source model {model!r}")
    shift = np.roll(np.eye(n), 1, axis=0).astype(complex)
    stage_rep = np.stack([np.linalg.matrix_power(shift, k) for k in range(n)])
    tower = _copies_tower(source_action.group, stage_unitaries, levels)
    return read_only((tower, source_action, stage_rep))


def build_lift_scenario(s: Scenario, rng: np.random.Generator):
    """The lift's (tower, source action, seed): a tower of stage algebras,
    the seed a conjugated copy of a known exact covariant representation
    in each, with geometrically decaying conjugation angles; the top stage
    is exact, and is the lift's phi."""
    src = s.source or {}
    tower_spec = s.tower or {}
    levels = int(tower_spec.get("levels", 8))
    base = float(tower_spec.get("base", 0.2))
    ratio = float(tower_spec.get("ratio", 0.2))
    tower, source_action, stage_rep = _lift_model(
        src.get("model", "translation"), int(src.get("order", 3)), levels)
    n, H = len(stage_rep), source_action.source

    # Stage j is conjugated by an angle base * ratio^j; the top is exact.
    scales = np.array([base * ratio ** j for j in range(levels - 1)])
    angles = np.zeros((levels, n, n), dtype=complex)
    angles[:-1] = scales[:, None, None] * random_skew(rng, n, count=levels - 1)
    q = exp_skew(angles)
    seed_vals = q @ stage_rep[:, None] @ adjoint(q)
    return tower, source_action, ApproxRep(H, Blocks((seed_vals,)), unitary=False,
                                           unital=False)


@_trial_runner
def run_lift_trial(s: Scenario, rng):
    tower, source_action, seed = build_lift_scenario(s, rng)
    result = lift_group_rep(tower, source_action, seed, tol=s.tolerance)
    measured = {
        "level": result.level,
        "rep_defect": result.rep.defect(),
        "equivariance": result.equivariance_residual,
        "projection": result.projection_residual,
        "iterations": result.correction.iterations,
    }
    checks = [(name, measured[name], 1e-11, 0.0)
              for name in ("rep_defect", "equivariance", "projection")]
    # The lift is found below the top, whose stage is exact by construction.
    checks.append(("finite_level", result.level, tower.top - 1, 0))
    return measured, checks, result.correction.trace


@functools.lru_cache(maxsize=MODELS)
def _rokhlin_model(d: int, block: int, corank: int):
    """The Rokhlin G-algebra and exact partition of ``build_rokhlin_scenario``."""
    G = cyclic_group(d)
    n = d * block + corank
    # g sends coordinate c of block j to block j + g and fixes the corank.
    c, g = np.arange(n), np.arange(d)[:, None]
    to = np.where(c < d * block, (c // block + g) % d * block + c % block, c)
    exact = np.zeros((d, n, n), dtype=complex)
    exact[:, c, c] = c // block == g
    unitaries = np.eye(n, dtype=complex)[:, to].transpose(1, 0, 2)
    return read_only((matrix_algebra(n, G, unitaries), exact))


def build_rokhlin_scenario(d: int, block: int, magnitude: float,
                           rng: np.random.Generator, corank: int = 0):
    """Z/d acting on M_n, n = d * block + corank, by cyclically shifting d
    blocks of size ``block`` and fixing the last ``corank`` coordinates;
    the exact partition puts p_g on the g-th block (so it sums to 1 only
    for corank 0), and the seeds are its randomly rotated copies."""
    algebra, exact = _rokhlin_model(d, block, corank)
    # Conjugating each seed by its own rotation keeps it an exact projection
    # while breaking orthogonality, equivariance and the unit sum.
    q = exp_skew(magnitude * random_skew(rng, algebra.dim, count=d))
    return algebra, exact, q @ exact @ adjoint(q)


def _partition_outcome(result, measured: dict):
    """A partition trial's measured values followed by its residuals, the
    residual checks (1e-12 each) and its one trace row."""
    res = result.residuals
    return ({**measured, **{f"residual_{k}": v for k, v in res.items()}},
            [(f"residual_{k}", v, 1e-12, 0.0) for k, v in res.items()],
            [(0, max(res.values()), result.displacement)])


@_trial_runner
def run_rokhlin_trial(s: Scenario, rng):
    d = group_of(s.group).order
    block = max(1, s.dimension // d)
    algebra, exact, seeds = build_rokhlin_scenario(d, block, s.magnitude, rng)
    result = stabilize_partition(algebra, seeds)
    return _partition_outcome(result, {"seed_defect": result.seed_defect,
                                       "displacement": result.displacement})


@_trial_runner
def run_tracial_trial(s: Scenario, rng):
    d = group_of(s.group).order
    block = max(1, (s.dimension - s.corner_corank) // d)
    corank = int(s.corner_corank)
    algebra, _, seeds = build_rokhlin_scenario(d, block, s.magnitude, rng, corank)
    n = algebra.dim
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = y @ y.conj().T
    x = x / largest_norm(x)[0]
    result = stabilize_tracial_partition(algebra, seeds, x)
    return _partition_outcome(result, {
        "displacement": result.displacement,
        "witness_compression": result.witness_compression_norm,
        "complement_rank": result.complement_rank})


@_trial_runner
def run_graded_trial(s: Scenario, rng):
    algebra, values = s.graded_model
    if s.graded_data is None:
        values = perturb_rep_values(values, s.magnitude, rng)
    result, residuals = graded_correct(algebra, values, tol=s.tolerance)
    measured = {
        "final_defect": result.last.defect(),
        "distance": result.trace[-1][2],
        "component_residual": max(residuals),
        "iterations": result.iterations,
    }
    cap = 2 * (6 * EPS0) / (1 - REP_CONTRACTION * 6 * EPS0)
    checks = [("final_defect", measured["final_defect"], s.tolerance, 0.0),
              ("component_residual", measured["component_residual"], 1e-12, 0.0),
              ("distance", measured["distance"], cap, 1e-10)]
    return measured, checks, result.trace


@_trial_runner
def run_integral_estimate_trial(s: Scenario, rng):
    group = group_of(s.group)
    n = s.dimension
    theta = 2 * np.arcsin(min(s.magnitude, 1.0) / 2)
    values = exp_skew(theta * random_skew(rng, n, count=group.order))
    lhs, bound, r, avg_norm = verify_integral_estimate(group, values)
    measured = {"r": r, "lhs": lhs, "avg_norm": avg_norm}
    checks = [("integral_estimate", lhs, bound, 1e-11),
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
    support, a group order that would size a model's matrices past the
    largest dimension, and graded_data that is not a grading of the group.
    A lift's group is checked too, though its trials take their groups from
    the source model.  Run before any trial, since a ScenarioError inside a
    trial would be recorded as a failed trial instead of rejecting the
    scenario."""
    spec = s.group
    if s.kind in ("rokhlin", "tracial") and spec["kind"] != "cyclic":
        raise ScenarioError(f"/group/kind: {s.kind} scenarios require a "
                            f"cyclic group, got {spec['kind']!r}")
    try:
        group = group_of(spec)
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise ScenarioError(f"/group/params: {spec.get('params')!r} does not "
                            f"build a {spec['kind']} group ({exc})") from None
    # A partition kind runs M_n with n >= |G|, and a graded one without data
    # the regular model on M_|G|: refused before the model is built.
    side = SCENARIO_SCHEMA["properties"]["dimension"]["maximum"]
    if group.order > side and (s.kind in ("rokhlin", "tracial") or
                               s.kind == "graded" and s.graded_data is None):
        raise ScenarioError(f"/group/params: {s.kind} scenarios run matrices of "
                            f"side at least the group order, {group.order} for "
                            f"{group.name}, over the largest dimension {side}")
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
    cannot run, or an unusable ``out_dir``, raises ScenarioError before
    anything is written, and a file that cannot be written raises it too.

    Each output is written as a new file: an existing entry of its name, a
    symlink included, is removed first and never written through, since
    ext4 flushes a truncated file's new data when it is closed."""
    _check_scenario(scenario)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"{out}: cannot make the directory ({exc.strerror})") from None
    runner = TRIAL_RUNNERS[scenario.kind]
    reports = []
    failures = []
    for trial in range(scenario.trials):
        try:
            rep = runner(scenario, trial)
        except (ValueError, RuntimeError) as exc:
            # Precondition or convergence failures are certification
            # failures, not crashes: record and keep running.
            rep = TrialReport(trial, {"error": str(exc), "error_class":
                                      type(exc).__name__}, [], 0.0, [], error=str(exc))
        reports.append(rep)
        failures.extend(rep.failures())
    lines = ["trial,iteration,defect,distance"]
    for rep in reports:
        for it, defect, dist in rep.rows:
            lines.append(f"{rep.trial},{it},{float(defect)!r},{float(dist)!r}")
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
    for name, text in (("trace.csv", "\n".join(lines) + "\n"),
                       ("report.json", json.dumps(payload, sort_keys=True))):
        path = out / name
        try:
            path.unlink(missing_ok=True)
            path.write_text(text)
        except OSError as exc:
            raise ScenarioError(f"{path}: cannot write ({exc.strerror})") from None
    return ScenarioReport(scenario=scenario, trials=reports,
                          all_passed=not failures, failures=failures)


def _jsonify(d: dict) -> dict:
    return {k: v.item() if isinstance(v, np.generic) else v for k, v in d.items()}
