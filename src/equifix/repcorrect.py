"""Correction of approximately multiplicative unitary families to exact
group representations, and the equivariant lifting pipeline through a
quotient tower.

The one-step corrector replaces rho by

    sigma(g) = exp( avg_k log( rho(k)* rho(kg) rho(g)* ) ) rho(g),

which squares the multiplicativity defect (defect r gives at most 17 r^2)
while moving each value by at most 2r.  Iterating from r < 1/17 converges
to an exact representation within 2r/(1-17r) of the input, and any quotient
under which the input was already exact is left untouched, so a pinned one
(``pin``) is split off.  The lifting pipeline lifts a nonequivariant seed's
top image, combining a level search, group-averaging symmetrization, polar
unitarization, the iterated corrector, and an intertwining unitary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .groups import FiniteGroup, cyclic_group
from .matfun import (Blocks, _polar_parts, adjoint, concatenate, exp_skew,
                     identity_like, largest_norm, polar_unitary,
                     principal_log_unitary, read_only_copy, readout_norm)
from .galgebra import (GAlgebra, Tower, _pair_stacks, group_mean, group_stack,
                       max_pair_defect, pair_chunks)

# A step takes defect r to at most CONTRACTION r^2.
CONTRACTION = 17
ONE_STEP_MAX_DEFECT = 1.0 / 5
ITERATE_MAX_DEFECT = 1.0 / CONTRACTION
ITERATION_CAP = 64
# The largest float below 1: a norm exceeds it exactly when it is >= 1.
BELOW_ONE = np.nextafter(1.0, 0.0)
# Unitarization constants of the lift and the graded corrector.  EPS0 is
# the polar target radius; values are unitarized only when within
# UNITARIZE_EPS of a unitary, which guarantees the polar part moves them by
# less than EPS0 (singular values are 1-Lipschitz in the operand, so
# ||polar(a) - u|| <= ||polar(a) - a|| + ||a - u|| < 2 * UNITARIZE_EPS).
EPS0 = 1.0 / (12 * CONTRACTION)
UNITARIZE_EPS = EPS0 / 2


class DefectTooLargeError(ValueError):
    """A corrector precondition on the measured defect is violated."""


class ConvergenceError(RuntimeError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(eq=False)
class ApproxRep:
    """A map v from a finite group into square matrices, or into a block
    algebra (values as Blocks), with measured (never assumed) defect: the
    largest ||v(gh) - v(g) a_g(v(h))||, where a_g is the identity for a
    representation and ``act(g, .)`` for a cocycle over an action.  The
    values are copied and made read-only, so the defect is measured once
    and cached.  An exactness gate is ``defect_at_most(tol)``: a screened
    pass that on exact input ends after the Frobenius norms, and that
    caches the exact defect and pair when it fails."""

    group: FiniteGroup
    values: object                # (|G|, n, n) array or Blocks
    unitary: bool = True
    unital: bool = True
    act: Optional[Callable] = None
    _defect: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self._defect = None
        self.values = v = read_only_copy(group_stack(self.values, self.group.order))
        one = identity_like(v[0]) if isinstance(v, Blocks) else np.eye(v.shape[-1])
        if self.unitary:
            worst = largest_norm(adjoint(v) @ v - one, 1e-10)[0]
            if worst > 1e-10:
                raise ValueError(f"values flagged unitary but defect is {worst:.3e}")
        if self.unital:
            err = largest_norm(v[self.group.identity] - one, 1e-10)[0]
            if err > 1e-10:
                raise ValueError(f"values flagged unital but rho(e) is off by {err:.3e}")

    def defect(self) -> float:
        return self.defect_with_argmax()[0]

    def defect_with_argmax(self):
        """Max over pairs (g, h) of ||v(gh) - v(g) a_g(v(h))|| and the
        attaining pair."""
        if self._defect is None:
            self._defect = max_pair_defect(self.values, self.group.mult, self.act)
        return self._defect

    def defect_at_most(self, tol: float) -> bool:
        """Whether ``defect() <= tol``: the cached defect when there is one,
        else ``max_pair_defect`` at floor tol.  A pair over tol makes that
        the exact figure and pair (the floor rule), which are then cached;
        a pass caches nothing."""
        if self._defect is None:
            found = max_pair_defect(self.values, self.group.mult, self.act, tol)
            if found[1] is None:
                return True
            self._defect = found
        return self._defect[0] <= tol

    def distance_to(self, other: "ApproxRep") -> float:
        return largest_norm(self.values - other.values)[0]


def _require_untwisted(rep: ApproxRep, name: str):
    """Refuse a cocycle (``act`` set): its cached defect is the twisted one,
    which says nothing of v(gh) - v(g) v(h)."""
    if rep.act is not None:
        raise ValueError(f"{name} must be a representation, not a cocycle "
                         f"(its act is set)")


def one_step(rep: ApproxRep) -> ApproxRep:
    """One correction step.  Requires a representation (no ``act``) of
    measured defect r <= 1/5; the output has defect at most 17 r^2 and is
    within 2r of the input pointwise."""
    _require_untwisted(rep, "rep")
    r, pair = rep.defect_with_argmax()
    if r > ONE_STEP_MAX_DEFECT:
        raise DefectTooLargeError(
            f"defect {r:.6g} exceeds 1/5; attained at pair {pair}")
    G, v = rep.group, rep.values
    v_adj = adjoint(v)
    # One (g, k) stack per chunk of g, m[g, k] = rho(k)* rho(kg) rho(g)*:
    # one log of the whole stack and one mean over k.
    x = [principal_log_unitary(v_adj[None] @ v[G.mult.T[c]] @ v_adj[c, None])
         .mean(axis=1) for c in pair_chunks(v, G.order)]
    x = x[0] if len(x) == 1 else concatenate(x)
    return ApproxRep(G, exp_skew(x) @ v, unitary=rep.unitary, unital=rep.unital)


@dataclass
class Correction:
    """What an iterated corrector returns: its last iterate, the iteration
    count, the trace of (iteration, measured, distance from the input)
    rows, and how far a pinned quotient's blocks moved (``pin``), if any."""

    last: object
    iterations: int
    trace: list
    quotient_drift: Optional[float]


def _iterate(x0, r0, step, measure, distance, tol, what):
    """Apply ``step(it, x)`` from x0 until ``measure(x)`` is at most tol,
    measuring each iterate once.  The trace of (iteration, measured,
    distance(x)) rows starts from (0, r0, 0.0).  Raises ConvergenceError
    after ITERATION_CAP steps."""
    trace = [(0, r0, 0.0)]
    x, it = x0, 0
    while trace[-1][1] > tol:
        if it == ITERATION_CAP:
            raise ConvergenceError(
                f"{what} still {trace[-1][1]:.3e} after {ITERATION_CAP} iterations",
                trace)
        it += 1
        x = step(it, x)
        trace.append((it, measure(x), distance(x)))
    return Correction(last=x, iterations=it, trace=trace, quotient_drift=None)


def _pinned(pin, r0, tol, x0, figure, message):
    """For ``pin=(tower, level)``: the projection ``down`` onto the top
    quotient's blocks, their figure and where it is attained,
    ``figure(down)`` (over 1e-12 raises ``message``), frozen when below the
    whole figure r0 and at most tol (else (-1.0, None) and none), and x0's
    moving part and re-attaching map (``split``), whose figure is then r0."""
    tower, level = pin
    down = partial(tower.project, tower.top, level)
    frozen, keep = figure(down), tower.kept(tower.top, level)
    if frozen[0] > 1e-12:
        raise DefectTooLargeError(message.format(frozen[0]))
    if frozen[0] > tol or frozen[0] >= r0:
        frozen, keep = (-1.0, None), []
    return (down, frozen, keep, *tower.level(level).split(x0, keep))


def _admitted_defect(rep: ApproxRep):
    """The defect of a representation (no ``act``) and its pair, which the
    iterated corrector admits only below 1/17."""
    _require_untwisted(rep, "rep")
    r0, pair = rep.defect_with_argmax()
    if r0 >= ITERATE_MAX_DEFECT:
        raise DefectTooLargeError(
            f"defect {r0:.6g} is not below 1/{CONTRACTION}; attained at pair {pair}")
    return r0, pair


def correct_to_rep(rep: ApproxRep, tol: float, pin: Optional[tuple] = None
                   ) -> Correction:
    """Iterate the one-step corrector on a representation (no ``act``)
    until the defect is below tol.

    With ``pin=(tower, level)``, values in that level, the top quotient's
    blocks must already be exact: their defect is measured once, <= 1e-12.
    The step leaves them fixed, so they are split off (``_pinned``) and
    only the others iterate, each iterate measured as the larger of their
    defect and the frozen one; the pinned blocks' drift is returned.
    """
    r0, pair = _admitted_defect(rep)
    G, moving, frozen = rep.group, rep, (-1.0, None)
    if pin is not None:
        down, frozen, _, values, attach = _pinned(
            pin, r0, tol, rep.values,
            lambda down: max_pair_defect(down(rep.values), G.mult),
            "quotient of the input is not an exact representation (defect {:.3e})")
        moving = ApproxRep(G, values, unitary=rep.unitary, unital=rep.unital)
        moving._defect = (r0, pair)     # the frozen figure is below r0

    correction = _iterate(moving, r0, lambda it, x: one_step(x),
                          lambda x: max(x.defect(), frozen[0]),
                          moving.distance_to, tol, "defect")
    if pin is not None:
        # The whole's defect is the larger part's, at its first pair.
        found = min(correction.last.defect_with_argmax(), frozen,
                    key=lambda d: (-d[0], d[1]))
        correction.last = ApproxRep(G, attach(correction.last.values),
                                    unitary=rep.unitary, unital=rep.unital)
        correction.last._defect = found
        correction.quotient_drift = readout_norm(down(correction.last.values -
                                                      rep.values), 0.0)
    return correction


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
        # Each g in turn: perm[g] a permutation, then pairs (x, y) in
        # row-major order, an automorphism failure at a pair named before a
        # multiplicativity failure at it.
        for g, (p, s) in enumerate(zip(perm, scalar)):
            if np.any(np.sort(p) != np.arange(H.order)):
                raise ValueError(f"perm[{g}] is not a permutation of H")
            auto = (p[H.mult] != H.mult[p[:, None], p]).ravel()
            mult = (np.abs(s[H.mult] - s[:, None] * s) > tol).ravel()
            if np.any(auto | mult):
                if auto[np.argmax(auto | mult)]:
                    raise ValueError(f"perm[{g}] is not an automorphism of H")
                raise ValueError(f"scalar[{g}] is not multiplicative over H")
        # Then pairs (g, h) in row-major order: perm[gh] = perm[g] o perm[h]
        # before scalar[gh, x] = scalar[g, perm[h, x]] scalar[h, x].
        hom = np.any(perm[G.mult] != perm[:, perm], axis=-1).ravel()
        rule = (np.max(np.abs(scalar[G.mult] - scalar[:, perm] * scalar), axis=-1)
                > tol).ravel()
        if np.any(hom | rule):
            if hom[np.argmax(hom | rule)]:
                raise ValueError("perm is not a homomorphism in g")
            raise ValueError("scalar fails the composition rule")


def translation_source_action(d: int) -> SourceAction:
    """The dual-translation action of Z/d (``cyclic_group(d)``) on its own
    group algebra: alpha_a(u^k) = zeta^{-ak} u^k, zeta = exp(2 pi i / d)."""
    zd = cyclic_group(d)
    a = np.arange(d).reshape(-1, 1)
    k = np.arange(d).reshape(1, -1)
    scalar = np.exp(-2j * np.pi * a * k / d)
    perm = np.tile(np.arange(d, dtype=np.intp), (d, 1))
    return SourceAction(group=zd, source=zd, perm=perm, scalar=scalar)


def _equivariance_stacks(values, act: Callable, source_action: SourceAction):
    """Per chunk c of g, the (k, |H|, ...) stack gamma_g(psi(u_x)) -
    psi(alpha_g(u_x)): one stacked call ``act(g[:, None], values)``, which
    ``GAlgebra.act`` gives for an index array broadcast against the values."""
    values = group_stack(values, source_action.source.order)
    perm, scalar = source_action.perm, source_action.scalar
    order = source_action.group.order
    for c in pair_chunks(values, order):
        yield (act(np.arange(order)[c, None], values) -
               scalar[c, :, None, None] * values[perm[c]])


def equivariance_defect(values, act: Callable, source_action: SourceAction,
                        floor: float = 0.0) -> float:
    """Max over (g, x) of || gamma_g(psi(u_x)) - psi(alpha_g(u_x)) ||, or
    ``floor`` if that is larger: one screened norm per chunk of g over the
    running maximum, so a gate at tolerance ``floor`` takes no SVD on
    slices that are screened under it."""
    worst = floor
    for stack in _equivariance_stacks(values, act, source_action):
        worst = largest_norm(stack, worst)[0]
    return worst


def symmetrize(values, act: Callable, source_action: SourceAction):
    """Group-average a map on the canonical unitaries to make it exactly
    equivariant:  T(u_x) = avg_g gamma_g( psi( alpha_{g^-1}(u_x) ) ).

    When the composition with a quotient under which the target action
    descends is already equivariant, that composition is unchanged.  One
    stacked call ``act(g[:, None], .)`` per chunk of g (``group_mean``)
    acts on the (k, |H|, ...) stack of the terms' arguments.
    """
    G = source_action.group
    perm, scalar = source_action.perm, source_action.scalar
    values = group_stack(values, source_action.source.order)

    def terms(g):
        ginv = G.inv[g]
        return act(g[:, None], scalar[ginv][..., None, None] * values[perm[ginv]])
    return group_mean(terms, values, G.order)


def intertwiner(rho: ApproxRep, sigma: ApproxRep) -> np.ndarray:
    """Unitary u with u rho(g) u* = sigma(g) for two representations (no
    ``act``), exact to 1e-11, at pointwise distance < 1: the polar part of
    avg_h sigma(h)* rho(h).  Where rho and sigma agree on some blocks of a
    block algebra, the average is 1 there, and so is u.
    """
    for name, rep in (("rho", rho), ("sigma", sigma)):
        _require_untwisted(rep, name)
        if not rep.defect_at_most(1e-11):
            raise DefectTooLargeError(f"{name} is not exact: defect {rep.defect():.3e}")
    dist, g = largest_norm(rho.values - sigma.values, BELOW_ONE)
    if g is not None:
        raise DefectTooLargeError(
            f"representations are at distance {dist:.6g} >= 1 (attained at g={g})")
    return polar_unitary((adjoint(sigma.values) @ rho.values).mean(axis=0))


@dataclass
class LevelReport:
    level: int
    equivariance_defect: float
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
    """What ``lift_group_rep`` returns.  The residuals are readouts
    (``readout_norm``) of the final family's pair defect
    (``defect_residual``), equivariance defect and distance from phi at
    the top: each exact over 1e-14, else at most 1e-14 and not below it."""

    level: int
    rep: ApproxRep
    table: list
    correction: Correction
    defect_residual: float
    equivariance_residual: float
    projection_residual: float


# First level whose symmetrized-and-unitarized defect clears this threshold
# is accepted; it leaves the iterated corrector a comfortable margin.
LEVEL_ACCEPT_THRESHOLD = EPS0


def _level_maxima(stacks, algebra: GAlgebra, keeps: list) -> list:
    """Per scanned level, the largest norm over the blocks it keeps
    (``keeps[i]``, positions among the algebra's blocks) of the elements of
    the stacks, each made of the algebra's elements.  Deepest level first,
    every block of a stack enters one screened norm: the blocks a level
    keeps and the next level drops, with the next level's figure, and the
    level's own from earlier stacks, as floor."""
    worst = [0.0] * len(keeps)
    extra = [sorted(set(k) - set(deeper)) for k, deeper in zip(keeps, keeps[1:])]
    extra += keeps[-1:]
    for stack in stacks:
        below = 0.0
        for i in reversed(range(len(keeps))):
            below = max(worst[i], below)
            if extra[i]:
                below = largest_norm(algebra.take(stack, extra[i]), below)[0]
            worst[i] = below
    return worst


def lift_group_rep(tower: Tower, source_action: SourceAction, seed: ApproxRep,
                   tol: float) -> LiftResult:
    """Lift an exact equivariant representation phi of a finite group H at
    the top of a tower, the image there of a seed at level 0, to an exact
    equivariant representation at a finite level below the top.  phi, the
    seed and the result are ApproxReps with unitary=False and unital=False:
    the lift's own gates decide; phi's exactness and equivariance are
    screened gates at 1e-11.

    Every stage runs on the blocks live at its level.  Pipeline: a
    nonequivariant seed at level 0, symmetrized and polar-decomposed once
    there -> scan levels in increasing order, each taking its live blocks
    of those, accepting the first whose symmetrized and unitarized family
    has defect below min(1/34, eps0) -> iterated correction with the top
    quotient pinned -> conjugation by an intertwiner back onto the seed's
    restriction to the accepted level, always.  That restriction is gated
    as unitary, and the intertwiner's gates (exact to 1e-11, at distance
    below 1) are its only other checks; the two must agree to 1e-11 on the
    top quotient's blocks, which the correction keeps.  The table's one
    seed figure, its equivariance defect at each scanned level, comes from
    one pass over level 0's stacks (``_level_maxima``).  The final family's
    pair defect is read out as ``defect_residual``, like its equivariance
    and projection residuals.
    """
    H = source_action.source
    top = tower.top
    phi = ApproxRep(H, tower.project(top, 0, seed.values), unitary=False,
                    unital=False)
    phi_vals = phi.values
    top_act = tower.level(top).act
    if not (phi.defect_at_most(1e-11) and
            equivariance_defect(phi_vals, top_act, source_action, 1e-11) <= 1e-11):
        raise DefectTooLargeError(
            f"phi must be exact and equivariant at the top "
            f"(defect {phi.defect():.3e}, equivariance "
            f"{equivariance_defect(phi_vals, top_act, source_action):.3e})")

    # The action and the ideals go block by block, so a level's symmetrized
    # family, its polar parts and their distances from the unitaries are
    # level 0's on its live blocks: one symmetrization and one SVD per block
    # size serve the whole scan, and a level is unitarizable when each of
    # its live blocks is within UNITARIZE_EPS, measured as max |s - 1| over
    # its singular values s.  The seed's figures are likewise level 0's
    # stacks on the live blocks.
    level0 = tower.level(0)
    seed0 = tower.project(0, 0, seed.values)
    pairs = [_polar_parts(p) for p in symmetrize(seed0, level0.act,
                                                 source_action).parts]
    polar = Blocks(q for q, _ in pairs)
    dists = Blocks(np.max(np.abs(s - 1.0), axis=-1, initial=0.0)[..., None, None]
                   for _, s in pairs)                    # (|H|, K_s, 1, 1)
    table = []
    for level in range(top):
        kept = tower.kept(level, 0)
        rho0 = None
        if all(np.all(d < UNITARIZE_EPS) for d in level0.take(dists, kept).parts):
            rho0 = ApproxRep(H, level0.take(polar, kept))
        # The defect is measured once: the rep caches it for the corrector.
        uni_defect = None if rho0 is None else rho0.defect()
        accepted = uni_defect is not None and uni_defect < LEVEL_ACCEPT_THRESHOLD
        table.append(LevelReport(level, None, rho0 is not None, uni_defect,
                                 accepted))
        if accepted:
            break
    eqs = _level_maxima(_equivariance_stacks(seed0, level0.act, source_action),
                        level0, [tower.kept(row.level, 0) for row in table])
    for row, eq in zip(table, eqs):
        row.equivariance_defect = eq
    if not (table and table[-1].accepted):
        raise LiftError("no tower level admits the correction "
                        "(tower too coarse for the defect threshold)", table)

    seed_rep = ApproxRep(H, tower.project(level, 0, seed.values), unital=False)
    correction = correct_to_rep(rho0, tol=tol, pin=(tower, level))
    seed_vals, corrected = seed_rep.values, correction.last.values
    u = intertwiner(seed_rep, correction.last)
    mismatch = largest_norm(tower.project(top, level, seed_vals - corrected), 1e-11)[0]
    if mismatch > 1e-11:
        raise DefectTooLargeError(f"quotients of rho and sigma differ by {mismatch:.3e}")
    final_vals = u @ seed_vals @ adjoint(u)

    defect_res = max(readout_norm(stack, 0.0) for _, stack in
                     _pair_stacks(final_vals, H.mult))
    eq_res = max(readout_norm(stack, 0.0) for stack in
                 _equivariance_stacks(final_vals, tower.level(level).act, source_action))
    proj_res = readout_norm(tower.project(top, level, final_vals) - phi_vals, 0.0)
    return LiftResult(level=level,
                      rep=ApproxRep(H, final_vals, unitary=False, unital=False),
                      table=table, correction=correction, defect_residual=defect_res,
                      equivariance_residual=eq_res, projection_residual=proj_res)
