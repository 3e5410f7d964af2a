"""Scenario construction, perturbation and execution.

A scenario describes a family of randomized trials for one corrector:
build an exact structure, perturb it by a prescribed magnitude, run the
correction, and check every quantitative bound the corrector certifies.
Randomness comes from the counter-based Philox generator keyed by the
scenario seed with the trial index as a counter offset, so identical
scenario + seed reproduce identical outputs byte for byte.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np
from scipy.linalg import expm

from .groups import FiniteGroup, cyclic_group, make_group
from .matfun import EPS0, Blocks, largest_norm, operator_norm
from .galgebra import GAlgebra, GHom, Tower, matrix_algebra
from .repcorrect import (ApproxRep, SourceAction, correct_to_rep,
                         lift_group_rep, one_step, translation_source_action)
from .cocycles import coboundary, one_step_cobound, trivialize, \
    verify_integral_estimate
from .relations import stabilize_partition, stabilize_tracial_partition
from .graded import (GradedAlgebra, character_table, graded_correct,
                     regular_graded_model)

SCENARIO_KINDS = ("rep", "cocycle", "lift", "rokhlin", "tracial", "graded",
                  "integral_estimate")

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
        "seed": {"type": "integer", "minimum": 0},
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


def matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


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
        stacks.append(np.stack([matrix_from_json(m) for m in mats]))
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
    def from_dict(data: dict) -> "Scenario":
        validate_scenario(data)
        known = {f for f in Scenario.__dataclass_fields__}
        return Scenario(**{k: v for k, v in data.items() if k in known})

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


def validate_scenario(data: dict):
    import jsonschema
    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    errors = sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        lines = []
        for e in errors:
            pointer = "/" + "/".join(str(p) for p in e.absolute_path)
            lines.append(f"{pointer}: {e.message}")
        raise ScenarioError("scenario schema violations:\n" + "\n".join(lines))


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


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2
    norm = operator_norm(h)
    return h / norm if norm > 0 else h


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _perm_parity(perm) -> int:
    seen = [False] * len(perm)
    parity = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def _irrep_menu(kind: str, params) -> List:
    """List of (dim, fn) homomorphism pieces for the supported group kinds;
    fn maps an element index to a matrix."""
    if kind == "cyclic":
        d = int(params)
        menu = []
        for a in range(d):
            menu.append((1, lambda g, a=a, d=d:
                         np.array([[np.exp(2j * np.pi * a * g / d)]])))
        return menu
    if kind == "dihedral":
        n = int(params)
        menu = [(1, lambda g: np.eye(1, dtype=complex))]
        menu.append((1, lambda g, n=n: np.array([[(-1.0 + 0j) ** (g // n)]])))
        for k in range(1, n):
            def two_dim(g, k=k, n=n):
                a, b = g % n, g // n
                s = np.array([[1, 0], [0, -1]], dtype=complex)
                m = rotation(2 * np.pi * k * a / n)
                return m @ s if b else m
            menu.append((2, two_dim))
        return menu
    if kind == "symmetric":
        import itertools
        m = int(params)
        elems = sorted(itertools.permutations(range(m)))
        menu = [(1, lambda g: np.eye(1, dtype=complex))]
        menu.append((1, lambda g, elems=elems:
                     np.array([[(-1.0 + 0j) ** _perm_parity(elems[g])]])))

        def natural(g, elems=elems, m=m):
            p = elems[g]
            out = np.zeros((m, m), dtype=complex)
            for j in range(m):
                out[p[j], j] = 1.0
            return out
        menu.append((m, natural))
        return menu
    if kind == "product":
        spec_a, spec_b = params
        ga = make_group(spec_a[0], spec_a[1])
        gb = make_group(spec_b[0], spec_b[1])
        menu_a = _irrep_menu(spec_a[0], spec_a[1])
        menu_b = _irrep_menu(spec_b[0], spec_b[1])
        menu = []
        for da, fa in menu_a:
            for db, fb in menu_b:
                def tensor(g, fa=fa, fb=fb, nb=gb.order):
                    return np.kron(fa(g // nb), fb(g % nb))
                menu.append((da * db, tensor))
        return menu
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
    values = np.empty((group.order, dim, dim), dtype=complex)
    for g in range(group.order):
        blocks = [fn(g) for _, fn in chosen]
        full = np.zeros((dim, dim), dtype=complex)
        at = 0
        for b in blocks:
            k = b.shape[0]
            full[at:at + k, at:at + k] = b
            at += k
        values[g] = v @ full @ v.conj().T
    return values


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
    """Multiply each value by exp(magnitude * K) with K a ``random_skew``;
    with ``draw`` each K is the corner of a draw of that size (see
    ``random_skew``).  The identity slot is left alone so the family stays
    unital."""
    values = np.asarray(values, dtype=complex)
    out = values.copy()
    n = values.shape[1]
    for g in range(values.shape[0]):
        if g == skip_identity:
            continue
        k = random_skew(rng, n) if draw is None else random_skew(rng, draw, n)
        out[g] = values[g] @ expm(magnitude * k)
    return out


@dataclass
class TrialReport:
    trial: int
    measured: dict
    bounds: dict
    passes: dict
    wall_time: float
    rows: list          # (iteration, defect, distance)

    def all_passed(self) -> bool:
        return all(self.passes.values())


def _bound_pass(value, bound, slack):
    return bool(value <= bound + slack)


# ---------------------------------------------------------------------------
# Per-kind trial runners.

def _two_block_tower(group, unitaries):
    """Two copies of M_dim, each acted on by Ad(unitaries[g]); the quotient
    kills the first block.  Used for the kappa-pinned variants of the
    correctors."""
    perms = np.tile(np.arange(2, dtype=np.intp), (group.order, 1))
    algebra = GAlgebra(blocks=(len(unitaries[0]),) * 2, group=group, perms=perms,
                       unitaries=tuple((u, u) for u in unitaries))
    return Tower(algebra=algebra, ideals=(frozenset(), frozenset({0})))


def run_rep_trial(s: Scenario, trial: int) -> TrialReport:
    rng = trial_rng(s.seed, trial)
    group = make_group(s.group["kind"], s.group.get("params"))
    start = time.perf_counter()
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
    r = rep.defect()
    bounds = {"one_step_defect": 17 * r ** 2, "one_step_distance": 2 * r,
              "final_distance": 2 * r / (1 - 17 * r) if r < 1 / 17 else float("inf"),
              "final_defect": s.tolerance}
    result = correct_to_rep(rep, tol=s.tolerance, quotient=quotient)
    # The first iterate is one_step(rep); only an input already within
    # tolerance takes that step here.
    if result.iterations:
        step_defect, step_distance = result.trace[1][1:]
    else:
        stepped = one_step(rep)
        step_defect, step_distance = stepped.defect(), rep.distance_to(stepped)
    measured = {"r": r, "one_step_defect": step_defect,
                "one_step_distance": step_distance,
                "final_defect": result.rep.defect(),
                "final_distance": result.trace[-1][2],
                "iterations": result.iterations}
    passes = {
        "one_step_defect": _bound_pass(measured["one_step_defect"],
                                       bounds["one_step_defect"], 1e-10),
        "one_step_distance": _bound_pass(measured["one_step_distance"],
                                         bounds["one_step_distance"], 1e-10),
        "final_defect": _bound_pass(measured["final_defect"], s.tolerance, 0.0),
        "final_distance": _bound_pass(measured["final_distance"],
                                      bounds["final_distance"], 1e-9),
        "iterations": result.iterations <= 20,
    }
    if quotient is not None:
        measured["quotient_drift"] = result.quotient_drift
        passes["quotient_drift"] = result.quotient_drift <= 1e-12
    rows = list(result.trace)
    return TrialReport(trial, measured, bounds, passes,
                       time.perf_counter() - start, rows)


def run_cocycle_trial(s: Scenario, trial: int) -> TrialReport:
    rng = trial_rng(s.seed, trial)
    group = make_group(s.group["kind"], s.group.get("params"))
    start = time.perf_counter()
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
        v0[0] = v[0] @ expm(s.magnitude * random_skew(rng, 2 * dim, dim))
        v, v0 = Blocks((v,)), Blocks((v0,))
    else:
        algebra = matrix_algebra(dim, group, list(action))
        quotient = None
        v = random_unitary(rng, dim)
        v0 = v @ expm(s.magnitude * random_skew(rng, dim))
    w = coboundary(algebra, v)
    result = trivialize(w, v0, tol=s.tolerance, quotient=quotient)
    r = result.trace[0][1]
    bounds = {"one_step_mismatch": 10 * r ** 2, "one_step_distance": 2 * r,
              "final_distance": 2 * r / (1 - 10 * r) if r < 0.1 else float("inf"),
              "final_mismatch": s.tolerance}
    # The first iterate is one_step_cobound(w, v0); only a seed already
    # within tolerance takes that step here.
    if result.iterations:
        step_mismatch, step_distance = result.trace[1][1:]
    else:
        z = one_step_cobound(w, v0)
        step_mismatch, step_distance = w.mismatch(z)[0], operator_norm(z - v0)
    measured = {"r": r, "one_step_mismatch": step_mismatch,
                "one_step_distance": step_distance,
                "final_mismatch": result.mismatch,
                "final_distance": result.trace[-1][2],
                "iterations": result.iterations}
    passes = {
        "one_step_mismatch": _bound_pass(measured["one_step_mismatch"],
                                         bounds["one_step_mismatch"], 1e-10),
        "one_step_distance": _bound_pass(measured["one_step_distance"],
                                         bounds["one_step_distance"], 1e-10),
        "final_mismatch": _bound_pass(measured["final_mismatch"], s.tolerance, 0.0),
        "final_distance": _bound_pass(measured["final_distance"],
                                      bounds["final_distance"], 1e-9),
    }
    if quotient is not None:
        measured["quotient_drift"] = result.quotient_drift
        passes["quotient_drift"] = result.quotient_drift <= 1e-12
    return TrialReport(trial, measured, bounds, passes,
                       time.perf_counter() - start, list(result.trace))


def build_lift_scenario(s: Scenario, rng: np.random.Generator):
    """A tower of stage algebras, each with a conjugated copy of a known
    exact covariant representation, with geometrically decaying conjugation
    angles; the top stage is the exact answer."""
    src = s.source or {"model": "translation", "order": 3}
    tower_spec = s.tower or {"levels": 8, "base": 0.2, "ratio": 0.2}
    levels = int(tower_spec.get("levels", 8))
    base = float(tower_spec.get("base", 0.2))
    ratio = float(tower_spec.get("ratio", 0.2))
    order = int(src.get("order", 3))
    model = src.get("model", "translation")

    if model == "translation":
        d = order
        G = cyclic_group(d)
        H = cyclic_group(d)
        source_action = translation_source_action(d, G, H)
        stage_dim = d
        zeta = np.exp(2j * np.pi / d)
        dstage = np.diag(zeta ** (-np.arange(d)))
        stage_unitaries = [np.linalg.matrix_power(dstage, a) for a in range(d)]
        shift = np.roll(np.eye(d), 1, axis=0).astype(complex)
        stage_rep = np.stack([np.linalg.matrix_power(shift, k) for k in range(d)])
    elif model == "inversion":
        m = order
        G = cyclic_group(2)
        H = cyclic_group(m)
        perm = np.stack([np.arange(m), (-np.arange(m)) % m]).astype(np.intp)
        scalar = np.ones((2, m), dtype=complex)
        source_action = SourceAction(group=G, source=H, perm=perm, scalar=scalar)
        stage_dim = m
        flip = np.zeros((m, m), dtype=complex)
        for y in range(m):
            flip[(-y) % m, y] = 1.0
        stage_unitaries = [np.eye(m, dtype=complex), flip]
        shift = np.roll(np.eye(m), 1, axis=0).astype(complex)
        stage_rep = np.stack([np.linalg.matrix_power(shift, k) for k in range(m)])
    else:
        raise ScenarioError(f"unknown lift source model {model!r}")

    blocks = tuple(stage_dim for _ in range(levels))
    perms = np.tile(np.arange(levels, dtype=np.intp), (G.order, 1))
    unitaries = tuple(tuple(stage_unitaries[g] for _ in range(levels))
                      for g in range(G.order))
    algebra = GAlgebra(blocks=blocks, group=G, perms=perms, unitaries=unitaries)
    ideals = tuple(frozenset(range(j)) for j in range(levels))
    tower = Tower(algebra=algebra, ideals=ideals)

    eps = [base * ratio ** j for j in range(levels - 1)]
    seed_vals = np.empty((H.order, levels, stage_dim, stage_dim), dtype=complex)
    for j in range(levels):
        if j < levels - 1:
            q = expm(eps[j] * random_skew(rng, stage_dim))
        else:
            q = np.eye(stage_dim)
        seed_vals[:, j] = q @ stage_rep @ q.conj().T
    seed = GHom(source=H, values=Blocks((seed_vals,)), level=0)
    phi = GHom(source=H, values=tower.project_to_top(0, seed.values),
               level=tower.top)
    return tower, phi, source_action, seed


def run_lift_trial(s: Scenario, trial: int) -> TrialReport:
    rng = trial_rng(s.seed, trial)
    start = time.perf_counter()
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
    passes = {
        "rep_defect": measured["rep_defect"] <= 1e-11,
        "equivariance": measured["equivariance"] <= 1e-11,
        "projection": measured["projection"] <= 1e-11,
        "finite_level": result.level < tower.top,
    }
    rows = list(result.correction.trace)
    return TrialReport(trial, measured, {"defect": 1e-11}, passes,
                       time.perf_counter() - start, rows)


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
    seeds = np.stack([
        (lambda q: q @ exact[g] @ q.conj().T)(expm(magnitude * random_skew(rng, n)))
        for g in range(d)])
    return algebra, exact, seeds


def run_rokhlin_trial(s: Scenario, trial: int) -> TrialReport:
    rng = trial_rng(s.seed, trial)
    d = int(s.group.get("params", 2))
    block = max(1, s.dimension // d)
    start = time.perf_counter()
    algebra, exact, seeds = build_rokhlin_scenario(d, block, s.magnitude, rng)
    result = stabilize_partition(algebra, seeds)
    measured = {
        "seed_defect": result.seed_defects.overall,
        "displacement": result.displacement,
        **{f"residual_{k}": v for k, v in result.residuals.items()},
    }
    passes = {f"residual_{k}": v <= 1e-12 for k, v in result.residuals.items()}
    rows = [(0, max(result.residuals.values()), result.displacement)]
    return TrialReport(trial, measured, {"residuals": 1e-12}, passes,
                       time.perf_counter() - start, rows)


def run_tracial_trial(s: Scenario, trial: int) -> TrialReport:
    rng = trial_rng(s.seed, trial)
    d = int(s.group.get("params", 2))
    block = max(1, (s.dimension - s.corner_corank) // d)
    corank = int(s.corner_corank)
    start = time.perf_counter()
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
    checked = ("projection", "self_adjoint", "orthogonality", "equivariance",
               "unit_sum")
    passes = {f"residual_{k}": result.residuals[k] <= 1e-12 for k in checked}
    rows = [(0, max(result.residuals.values()), result.displacement)]
    return TrialReport(trial, measured, {"residuals": 1e-12}, passes,
                       time.perf_counter() - start, rows)


def run_graded_trial(s: Scenario, trial: int) -> TrialReport:
    rng = trial_rng(s.seed, trial)
    group = make_group(s.group["kind"], s.group.get("params"))
    start = time.perf_counter()
    if s.graded_data is not None:
        algebra, values = _graded_input(s.graded_data, group)
    else:
        algebra, exact = regular_graded_model(group)
        values = perturb_rep_values(exact, s.magnitude, rng,
                                    skip_identity=group.identity)
    result = graded_correct(algebra, values, tol=s.tolerance)
    measured = {
        "final_defect": result.rep.defect(),
        "distance": result.distance,
        "component_residual": max(result.component_residuals),
        "iterations": result.iterations,
    }
    cap = 2 * (6 * EPS0) / (1 - 17 * 6 * EPS0)
    passes = {
        "final_defect": measured["final_defect"] <= s.tolerance,
        "component_residual": measured["component_residual"] <= 1e-12,
        "distance": measured["distance"] <= cap + 1e-10,
    }
    return TrialReport(trial, measured, {"distance": cap}, passes,
                       time.perf_counter() - start, list(result.trace))


def run_integral_estimate_trial(s: Scenario, trial: int) -> TrialReport:
    rng = trial_rng(s.seed, trial)
    group = make_group(s.group["kind"], s.group.get("params"))
    start = time.perf_counter()
    n = s.dimension
    theta = 2 * np.arcsin(min(s.magnitude, 1.0) / 2)
    values = np.stack([expm(theta * random_skew(rng, n))
                       for _ in range(group.order)])
    lhs, bound, r, avg_norm = verify_integral_estimate(group, values)
    measured = {"r": r, "lhs": lhs, "avg_norm": avg_norm}
    passes = {
        "integral_estimate": _bound_pass(lhs, bound, 1e-10),
        "avg_contractive": avg_norm <= 1 + 1e-12,
    }
    return TrialReport(trial, measured, {"integral_estimate": bound}, passes,
                       time.perf_counter() - start, [(0, lhs, 0.0)])


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
    kind, params = s.group["kind"], s.group.get("params")
    if s.kind in ("rokhlin", "tracial"):
        if kind != "cyclic":
            raise ScenarioError(f"/group/kind: {s.kind} scenarios require a "
                                f"cyclic group, got {kind!r}")
        params = s.group.get("params", 2)
    try:
        group = make_group(kind, params)
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise ScenarioError(f"/group/params: {params!r} does not build a "
                            f"{kind} group ({exc})") from None
    if s.kind == "graded" and not group.is_abelian():
        raise ScenarioError(f"/group: graded scenarios require an abelian "
                            f"group, got {group.name}")
    if s.kind == "graded" and s.graded_data is not None:
        _graded_input(s.graded_data, group)
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
            rep = TrialReport(trial, {"error": str(exc)}, {},
                              {"completed": False}, 0.0, [])
        reports.append(rep)
        for name, ok in rep.passes.items():
            if not ok:
                failures.append(f"trial {trial}: bound {name} violated "
                                f"(measured {rep.measured.get(name, rep.measured)})")
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
    out = {}
    for k, v in d.items():
        if isinstance(v, (np.floating, float)):
            out[k] = float(v)
        elif isinstance(v, (np.integer, int)):
            out[k] = int(v)
        elif v is None or isinstance(v, (str, bool)):
            out[k] = v
        else:
            out[k] = repr(v)
    return out


def suite_scenarios(seed: int = 0, trials: Optional[int] = None) -> List[Scenario]:
    """The default battery exercising every corrector once."""
    t = trials
    return [
        Scenario(kind="rep", seed=seed, group={"kind": "cyclic", "params": 4},
                 dimension=4, magnitude=0.01, trials=t or 25),
        Scenario(kind="rep", seed=seed + 1, group={"kind": "dihedral", "params": 4},
                 dimension=4, magnitude=0.005, trials=t or 10,
                 tower={"levels": 2}),
        Scenario(kind="cocycle", seed=seed + 2,
                 group={"kind": "cyclic", "params": 3},
                 dimension=4, magnitude=0.01, trials=t or 25),
        Scenario(kind="lift", seed=seed + 3, group={"kind": "cyclic", "params": 3},
                 source={"model": "translation", "order": 3},
                 tower={"levels": 8, "base": 0.2, "ratio": 0.2}, trials=t or 10),
        Scenario(kind="rokhlin", seed=seed + 4,
                 group={"kind": "cyclic", "params": 3},
                 dimension=6, magnitude=0.02, trials=t or 15),
        Scenario(kind="tracial", seed=seed + 5,
                 group={"kind": "cyclic", "params": 2},
                 dimension=5, magnitude=0.02, trials=t or 10, corner_corank=1),
        # Magnitude at most 1/816 keeps every value within the 1/408 the
        # graded corrector requires of its distance to the grading component.
        Scenario(kind="graded", seed=seed + 6,
                 group={"kind": "cyclic", "params": 4},
                 magnitude=0.001, trials=t or 15),
        Scenario(kind="integral_estimate", seed=seed + 7,
                 group={"kind": "cyclic", "params": 5},
                 dimension=4, magnitude=0.3, trials=t or 25),
    ]
