"""Correction of approximately multiplicative unitary families to exact
group representations, and the equivariant lifting pipeline through a
quotient tower.

The one-step corrector replaces rho by

    sigma(g) = exp( avg_k log( rho(k)* rho(kg) rho(g)* ) ) rho(g),

which squares the multiplicativity defect (defect r gives at most 17 r^2)
while moving each value by at most 2r.  Iterating from r < 1/17 converges
to an exact representation within 2r/(1-17r) of the input, and any quotient
under which the input was already exact is left untouched.  The lifting
pipeline combines a nonequivariant seed, a level search, group-averaging
symmetrization, polar unitarization, the iterated corrector, and an
intertwining unitary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .groups import FiniteGroup, haar_average
from .matfun import (EPS0, UNITARIZE_EPS, exp_skew, nearest_unitary_distance,
                     operator_norm, polar_unitary, principal_log_unitary,
                     unitarity_defect)
from .galgebra import GHom, Tower

ONE_STEP_MAX_DEFECT = 1.0 / 5
ITERATE_MAX_DEFECT = 1.0 / 17
ITERATION_CAP = 64


class DefectTooLargeError(ValueError):
    """A corrector precondition on the measured defect is violated."""


class ConvergenceError(RuntimeError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(eq=False)
class ApproxRep:
    """A map from a finite group into square matrices with measured (never
    assumed) multiplicativity defect.  The values are copied and made
    read-only, so the defect is measured once and cached."""

    group: FiniteGroup
    values: np.ndarray            # (|G|, n, n)
    unitary: bool = True
    unital: bool = True
    _defect: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.ndim != 3 or v.shape[0] != self.group.order or v.shape[1] != v.shape[2]:
            raise ValueError(f"values shape {v.shape} does not match group order")
        v.flags.writeable = False
        self.values = v
        if self.unitary:
            worst = float(np.max(unitarity_defect(v)))
            if worst > 1e-10:
                raise ValueError(f"values flagged unitary but defect is {worst:.3e}")
        if self.unital:
            err = operator_norm(v[self.group.identity] - np.eye(v.shape[1]))
            if err > 1e-10:
                raise ValueError(f"values flagged unital but rho(e) is off by {err:.3e}")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def defect(self) -> float:
        return self.defect_with_argmax()[0]

    def defect_with_argmax(self):
        """Max over pairs (g, h) of ||rho(gh) - rho(g) rho(h)|| and the
        attaining pair."""
        if self._defect is None:
            G = self.group
            v = self.values
            prods = np.einsum("gij,hjk->ghik", v, v)
            norms = operator_norm(v[G.mult] - prods).ravel()
            i = int(np.argmax(norms))
            self._defect = (float(norms[i]), (i // G.order, i % G.order))
        return self._defect

    def distance_to(self, other: "ApproxRep") -> float:
        return float(np.max(operator_norm(self.values - other.values)))

    def conjugate(self, u: np.ndarray) -> "ApproxRep":
        u = np.asarray(u, dtype=complex)
        vals = np.einsum("ij,gjk,lk->gil", u, self.values, u.conj())
        return ApproxRep(self.group, vals, unitary=self.unitary, unital=self.unital)


def one_step(rep: ApproxRep) -> ApproxRep:
    """One correction step.  Requires measured defect r <= 1/5; the output
    has defect at most 17 r^2 and is within 2r of the input pointwise."""
    r, pair = rep.defect_with_argmax()
    if r > ONE_STEP_MAX_DEFECT:
        raise DefectTooLargeError(
            f"defect {r:.6g} exceeds 1/5; attained at pair {pair}")
    G = rep.group
    v = rep.values
    v_adj = v.conj().transpose(0, 2, 1)
    x = np.empty_like(v)
    # One (|G|, n, n) stack per g: m[k] = rho(k)* rho(kg) rho(g)*.
    for g in range(G.order):
        m = v_adj @ v[G.mult[:, g]] @ v_adj[g]
        x[g] = principal_log_unitary(m).mean(axis=0)
    return ApproxRep(G, exp_skew(x) @ v, unitary=rep.unitary, unital=rep.unital)


@dataclass
class RepCorrection:
    rep: ApproxRep
    iterations: int
    trace: list                       # (iteration, defect, distance_from_input)
    quotient_drift: Optional[float] = None

    @property
    def defect(self) -> float:
        return self.trace[-1][1]


def correct_to_rep(rep: ApproxRep, tol: float = 1e-12,
                   quotient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                   max_iter: int = ITERATION_CAP,
                   on_iterate: Optional[Callable[[int, ApproxRep], None]] = None
                   ) -> RepCorrection:
    """Iterate the one-step corrector until the defect is below tol.

    If a quotient map kappa is supplied, kappa o rep must already be an
    exact representation (defect <= 1e-12 downstairs); the iteration then
    leaves the downstairs image unchanged, and the drift is measured and
    returned.
    """
    r0, pair = rep.defect_with_argmax()
    if r0 >= ITERATE_MAX_DEFECT:
        raise DefectTooLargeError(
            f"defect {r0:.6g} is not below 1/17; attained at pair {pair}")
    if quotient is not None:
        down = ApproxRep(rep.group,
                         np.stack([quotient(rep.values[g])
                                   for g in range(rep.group.order)]),
                         unitary=False, unital=False)
        dd = down.defect()
        if dd > 1e-12:
            raise DefectTooLargeError(
                f"quotient of the input is not an exact representation "
                f"(defect {dd:.3e})")
    start = rep
    trace = [(0, r0, 0.0)]
    current = rep
    iterations = 0
    if r0 > tol:
        for it in range(1, max_iter + 1):
            current = one_step(current)
            iterations = it
            if on_iterate is not None:
                on_iterate(it, current)
            r = current.defect()
            trace.append((it, r, start.distance_to(current)))
            if r <= tol:
                break
        else:
            raise ConvergenceError(
                f"defect still {trace[-1][1]:.3e} after {max_iter} iterations",
                trace)
    drift = None
    if quotient is not None:
        moved = np.stack([quotient(c) - quotient(s)
                          for c, s in zip(current.values, start.values)])
        drift = float(np.max(operator_norm(moved)))
    return RepCorrection(rep=current, iterations=iterations, trace=trace,
                         quotient_drift=drift)


@dataclass(frozen=True, eq=False)
class SourceAction:
    """Action of a group G on the canonical unitaries of the group algebra
    of a finite group H: alpha_g(u_x) = scalar[g, x] * u_{perm[g, x]}.

    ``perm[g]`` must be an automorphism of H, g -> perm[g] a homomorphism,
    scalar[g, .] multiplicative over H, and the pair must satisfy the
    composition rule scalar[gh, x] = scalar[g, perm[h, x]] * scalar[h, x].
    """

    group: FiniteGroup
    source: FiniteGroup
    perm: np.ndarray         # (|G|, |H|)
    scalar: np.ndarray       # (|G|, |H|) complex, unit modulus

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.intp)
        scalar = np.asarray(self.scalar, dtype=complex)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "scalar", scalar)
        G, H = self.group, self.source
        if perm.shape != (G.order, H.order) or scalar.shape != (G.order, H.order):
            raise ValueError("perm/scalar shape mismatch")
        if np.any(np.abs(np.abs(scalar) - 1.0) > 1e-12):
            raise ValueError("scalars must have unit modulus")
        tol = 1e-12
        for g in range(G.order):
            p = perm[g]
            if sorted(p.tolist()) != list(range(H.order)):
                raise ValueError(f"perm[{g}] is not a permutation of H")
            for x in range(H.order):
                for y in range(H.order):
                    if p[H.mul(x, y)] != H.mul(p[x], p[y]):
                        raise ValueError(f"perm[{g}] is not an automorphism of H")
                    if abs(scalar[g, H.mul(x, y)] - scalar[g, x] * scalar[g, y]) > tol:
                        raise ValueError(f"scalar[{g}] is not multiplicative over H")
        for g in range(G.order):
            for h in range(G.order):
                gh = G.mul(g, h)
                if np.any(perm[gh] != perm[g][perm[h]]):
                    raise ValueError("perm is not a homomorphism in g")
                lhs = scalar[gh]
                rhs = scalar[g][perm[h]] * scalar[h]
                if np.max(np.abs(lhs - rhs)) > tol:
                    raise ValueError("scalar fails the composition rule")

    def apply_index(self, g: int, x: int):
        return int(self.perm[g, x]), self.scalar[g, x]


def trivial_source_action(group: FiniteGroup, source: FiniteGroup) -> SourceAction:
    perm = np.tile(np.arange(source.order, dtype=np.intp), (group.order, 1))
    scalar = np.ones((group.order, source.order), dtype=complex)
    return SourceAction(group=group, source=source, perm=perm, scalar=scalar)


def translation_source_action(d: int, group: FiniteGroup,
                              source: FiniteGroup) -> SourceAction:
    """The dual-translation action of Z/d on the group algebra of Z/d:
    alpha_a(u^k) = zeta^{-ak} u^k with zeta = exp(2 pi i / d)."""
    if group.order != d or source.order != d:
        raise ValueError("both groups must be Z/d in standard form")
    if not (group.is_cyclic_standard() and source.is_cyclic_standard()):
        raise ValueError("translation action requires standard cyclic tables")
    a = np.arange(d).reshape(-1, 1)
    k = np.arange(d).reshape(1, -1)
    scalar = np.exp(-2j * np.pi * a * k / d)
    perm = np.tile(np.arange(d, dtype=np.intp), (d, 1))
    return SourceAction(group=group, source=source, perm=perm, scalar=scalar)


def equivariance_defect(values: np.ndarray, act: Callable[[int, np.ndarray], np.ndarray],
                        source_action: SourceAction) -> float:
    """Max over (g, x) of || gamma_g(psi(u_x)) - psi(alpha_g(u_x)) ||."""
    G, H = source_action.group, source_action.source
    worst = 0.0
    for g in range(G.order):
        for x in range(H.order):
            bx, c = source_action.apply_index(g, x)
            worst = max(worst, operator_norm(act(g, values[x]) - c * values[bx]))
    return worst


def symmetrize(values: np.ndarray, act: Callable[[int, np.ndarray], np.ndarray],
               source_action: SourceAction) -> np.ndarray:
    """Group-average a map on the canonical unitaries to make it exactly
    equivariant:  T(u_x) = avg_g gamma_g( psi( alpha_{g^-1}(u_x) ) ).

    When the composition with a quotient under which the target action
    descends is already equivariant, that composition is unchanged.
    """
    G, H = source_action.group, source_action.source
    out = np.zeros_like(np.asarray(values, dtype=complex))
    for x in range(H.order):
        def term(g, x=x):
            ginv = G.inverse(g)
            bx, c = source_action.apply_index(ginv, x)
            return act(g, c * values[bx])
        out[x] = haar_average(G, term)
    return out


def unitarize_values(values: np.ndarray, eps: float = UNITARIZE_EPS) -> np.ndarray:
    """Replace each value by its polar part.  Every value must be within
    eps (default eps0/2, eps0 = 1/(6*34)) of a unitary, measured through
    its singular values; the polar parts then move each value by less than
    eps0."""
    values = np.asarray(values, dtype=complex)
    out = np.empty_like(values)
    for i in range(values.shape[0]):
        dist = nearest_unitary_distance(values[i])
        if dist >= eps:
            raise DefectTooLargeError(
                f"value {i} is at distance {dist:.6g} from the unitaries; "
                f"unitarization requires < {eps:.6g}")
        out[i] = polar_unitary(values[i])
    return out


def intertwiner(rho: ApproxRep, sigma: ApproxRep,
                quotient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                exact_tol: float = 1e-11) -> np.ndarray:
    """Unitary u with u rho(g) u* = sigma(g) for two exact representations
    at pointwise distance < 1: the polar part of avg_h sigma(h)* rho(h).

    When a quotient map kappa with kappa o rho = kappa o sigma is supplied,
    u satisfies kappa(u) = 1.
    """
    for name, rep in (("rho", rho), ("sigma", sigma)):
        d = rep.defect()
        if d > exact_tol:
            raise DefectTooLargeError(f"{name} is not exact: defect {d:.3e}")
    gap = rho.distance_to(sigma)
    if gap >= 1.0:
        dists = [operator_norm(rho.values[g] - sigma.values[g])
                 for g in range(rho.group.order)]
        g = int(np.argmax(dists))
        raise DefectTooLargeError(
            f"representations are at distance {gap:.6g} >= 1 (attained at g={g})")
    if quotient is not None:
        mismatch = max(operator_norm(quotient(rho.values[g]) - quotient(sigma.values[g]))
                       for g in range(rho.group.order))
        if mismatch > exact_tol:
            raise DefectTooLargeError(
                f"quotients of rho and sigma differ by {mismatch:.3e}")
    a = haar_average(rho.group,
                     lambda h: sigma.values[h].conj().T @ rho.values[h])
    return polar_unitary(a)


@dataclass
class LevelReport:
    level: int
    equivariance_defect: float
    mult_defect: float
    unitarizable: bool
    unitarized_defect: Optional[float]
    accepted: bool


class LiftError(RuntimeError):
    """No tower level admits the correction; carries the per-level table."""

    def __init__(self, message, table):
        super().__init__(message)
        self.table = table


@dataclass
class LiftResult:
    level: int
    rep: GHom
    intertwiner_unitary: Optional[np.ndarray]
    table: list
    correction: RepCorrection
    equivariance_residual: float
    projection_residual: float


# First level whose symmetrized-and-unitarized defect clears this threshold
# is accepted; it leaves the iterated corrector a comfortable margin.
LEVEL_ACCEPT_THRESHOLD = min(1.0 / (2 * 17), EPS0)


def lift_group_rep(tower: Tower, phi: GHom, source_action: SourceAction,
                   seed: Optional[GHom] = None, tol: float = 1e-12) -> LiftResult:
    """Lift an exact equivariant representation phi of a finite group H at
    the top of a tower to an exact equivariant representation at a finite
    level below the top.

    Pipeline: nonequivariant seed at level 0 (supplied, or phi extended by
    the identity representation on the dropped blocks) -> scan levels in
    increasing order, accepting the first whose symmetrized and unitarized
    family has defect below min(1/34, eps0) -> iterated correction with the
    top quotient pinned -> conjugation by an intertwiner back onto the seed
    (when the seed restricts to an exact representation, as it does for the
    classical pipeline).
    """
    A = tower.algebra
    H = source_action.source
    top = tower.top
    top_mask = tower.level_mask(top)
    phi_vals = np.asarray(phi.values, dtype=complex)

    phi_rep_defect = GHom(H, phi_vals, level=top).mult_defect()
    phi_eq = equivariance_defect(phi_vals,
                                 lambda g, a: tower.act_at_level(top, g, a),
                                 source_action)
    if phi_rep_defect > 1e-11 or phi_eq > 1e-11:
        raise DefectTooLargeError(
            f"phi must be exact and equivariant at the top "
            f"(defect {phi_rep_defect:.3e}, equivariance {phi_eq:.3e})")

    if seed is None:
        # Identity representation on every block the top quotient drops.
        fill = A.identity() * (A.block_mask() - top_mask)
        seed_vals = np.stack([phi_vals[x] + fill for x in range(H.order)])
    else:
        seed_vals = np.asarray(seed.values, dtype=complex)
        mismatch = max(operator_norm(seed_vals[x] * top_mask - phi_vals[x])
                       for x in range(H.order))
        if mismatch > 1e-11:
            raise ValueError(
                f"seed does not project to phi at the top (off by {mismatch:.3e})")

    table = []
    chosen = None
    for level in range(top):
        mask = tower.level_mask(level)
        level_vals = seed_vals * mask
        act = lambda g, a: tower.act_at_level(level, g, a)
        eq = equivariance_defect(level_vals, act, source_action)
        mult = GHom(H, level_vals, level=level).mult_defect()
        sym = symmetrize(level_vals, act, source_action)
        # Unitarity is relative to the level unit (dropped blocks stay zero):
        # measure against the polar set inside the live corner.
        live = np.flatnonzero(np.diag(mask))
        sub = sym[np.ix_(range(H.order), live, live)]
        dists = [nearest_unitary_distance(sub[x]) for x in range(H.order)]
        unitarizable = max(dists) < UNITARIZE_EPS
        uni_defect = None
        accepted = False
        rho0_sub = None
        if unitarizable:
            rho0_sub = np.stack([polar_unitary(sub[x]) for x in range(H.order)])
            uni_defect = GHom(H, rho0_sub, level=level).mult_defect()
            accepted = uni_defect < LEVEL_ACCEPT_THRESHOLD
        table.append(LevelReport(level, eq, mult, unitarizable, uni_defect, accepted))
        if accepted:
            chosen = (level, live, rho0_sub, level_vals, mask)
            break

    if chosen is None:
        raise LiftError("no tower level admits the correction "
                        "(tower too coarse for the defect threshold)", table)

    level, live, rho0_sub, level_vals, mask = chosen
    n_live = live.size
    embed = np.zeros((A.dim, n_live), dtype=complex)
    embed[live, np.arange(n_live)] = 1.0

    def expand(sub):
        return embed @ sub @ embed.conj().T

    def compress(full):
        return full[np.ix_(live, live)]

    def quotient_sub(sub):
        return compress(tower.project(top, level, expand(sub)))

    rho0 = ApproxRep(H, rho0_sub, unitary=True, unital=True)
    correction = correct_to_rep(rho0, tol=tol, quotient=quotient_sub)
    corrected = correction.rep

    # Conjugate the seed restriction onto the corrected representation when
    # the seed is itself an exact representation (the classical situation);
    # the corrected representation is returned either way.
    u_full = None
    final_sub = corrected.values
    seed_sub = np.stack([compress(level_vals[x]) for x in range(H.order)])
    seed_exact = GHom(H, seed_sub, level=level).mult_defect() <= 1e-11
    seed_unitary = max(unitarity_defect(seed_sub[x]) for x in range(H.order)) <= 1e-10
    if seed_exact and seed_unitary and \
            max(operator_norm(corrected.values[x] - seed_sub[x])
                for x in range(H.order)) < 1.0:
        psi1 = ApproxRep(H, seed_sub, unitary=True, unital=True)
        u = intertwiner(psi1, corrected, quotient=quotient_sub)
        final_sub = np.einsum("ij,gjk,lk->gil", u, seed_sub, u.conj())
        u_full = expand(u) + (np.eye(A.dim) - expand(np.eye(n_live)))

    final_vals = np.stack([expand(final_sub[x]) for x in range(H.order)])
    act = lambda g, a: tower.act_at_level(level, g, a)
    eq_res = equivariance_defect(final_vals, act, source_action)
    proj_res = max(operator_norm(tower.project(top, level, final_vals[x]) - phi_vals[x])
                   for x in range(H.order))
    return LiftResult(level=level, rep=GHom(H, final_vals, level=level),
                      intertwiner_unitary=u_full, table=table,
                      correction=correction, equivariance_residual=eq_res,
                      projection_residual=proj_res)
