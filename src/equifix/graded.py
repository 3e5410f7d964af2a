"""Gradings of matrix algebras by finite abelian groups, realized through a
dual action, and the correction of approximately graded unitary families to
exact graded representations.

For an abelian group the grading components are the spectral subspaces of
an action of the dual group; the Fourier projections

    P_g(x) = (1/|G^|) sum_tau  conj(tau(g)) beta_tau(x)

recover them.  A projection takes an index array g over a stack of values
as well, as one stacked mean over the characters.  The graded corrector
projects the whole family onto its components at once, gates the gaps
with one screened norm, unitarizes with one batched SVD, and iterates the
one-step corrector, whose steps provably stay inside the components,
gating each iterate on staying there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .galgebra import chunks, group_mean
from .groups import FiniteGroup
from .matfun import _polar_parts, _svd_norms, adjoint, largest_norm
from .repcorrect import (UNITARIZE_EPS, ApproxRep, Correction,
                         DefectTooLargeError, _admitted_defect, _iterate,
                         one_step)


class NonAbelianError(ValueError):
    pass


def character_table(group: FiniteGroup) -> np.ndarray:
    """Character table chi[tau, g] of a finite abelian group, with entries
    exact roots of unity: rows sorted by their tuple of angles, then the
    trivial character swapped to the front (``_character_rows``)."""
    return _character_rows(group)[0]


def _character_rows(group: FiniteGroup):
    """The character table, its rows of exponents e in the same order and
    the group's exponent N, chi(g) = exp(2 pi i e(g) / N), built from the
    multiplication table in integers.  A character is a row of exponents,
    known on the subgroup spanned so far.  The first element g outside it,
    with g^k its least power inside, spans k cosets more; each character
    extends in the k ways c with k c = e(g^k) mod N, which k divides
    because some extension exists and has values in the N-th roots of
    unity."""
    if not group.is_abelian():
        raise NonAbelianError(f"{group.name} is not abelian")
    n, mult = group.order, group.mult
    orders = [group.element_order(g) for g in range(n)]
    top = math.lcm(*orders)
    exps = np.zeros((1, n), dtype=np.intp)
    inside = np.arange(n) == group.identity
    while not inside.all():
        span = np.flatnonzero(inside)
        g = int(np.argmin(inside))
        powers, x = [group.identity], g
        while not inside[x]:
            powers.append(x)
            x = mult[x, g]
        k = len(powers)
        c = exps[:, x, None] // k + np.arange(k) * (top // k)   # (t, j): e(g)
        cosets = mult[np.ix_(powers, span)]                     # (i, h): g^i h
        # The j-th extension of character t at g^i h is e(h) + i c[t, j].
        ext = exps[:, None, None, span] + (c[..., None] * np.arange(k))[..., None]
        exps = np.empty((c.size, n), dtype=np.intp)
        exps[:, cosets] = ext.reshape(c.size, k, len(span)) % top
        inside[cosets] = True
    # roots[m][k] = exp(2 pi i k / m), for each element order m.
    roots = {m: np.array([np.exp(2j * np.pi * k / m) for k in range(m)])
             for m in set(orders)}
    chars = np.empty((n, n), dtype=complex)
    for g, m in enumerate(orders):
        chars[:, g] = roots[m][exps[:, g] * m // top]
    rows = sorted(range(n), key=lambda t: tuple(np.round(np.angle(chars[t]), 9)))
    triv = rows.index(0)        # the trivial character, built as row 0, goes first
    rows[0], rows[triv] = 0, rows[0]
    return chars[rows], exps[rows], top


def _dual_mult(exps: np.ndarray, top: int) -> np.ndarray:
    """dm[s, t]: the table row of the product of rows s and t, whose
    exponents (``_character_rows``) are (e_s + e_t) mod N, looked up exactly."""
    row = {e.tobytes(): i for i, e in enumerate(exps)}
    return np.array([[row[e.tobytes()] for e in (es + exps) % top] for es in exps])


@dataclass(frozen=True, eq=False)
class GradedAlgebra:
    """A matrix algebra graded by a finite abelian group through a dual
    action: one conjugating unitary per character, with the trivial
    character acting as the identity.  The characters are the rows of
    ``character_table(group)``, in its order; ``dim`` is the side of the
    dual unitaries."""

    group: FiniteGroup
    dual_unitaries: np.ndarray        # (|G^|, n, n), indexed like the table rows
    dim: int = field(init=False)
    chars: np.ndarray = field(init=False)   # (|G^|, |G|) character table

    def __post_init__(self):
        chars, exps, top = _character_rows(self.group)
        object.__setattr__(self, "chars", chars)
        du = np.asarray(self.dual_unitaries, dtype=complex)
        object.__setattr__(self, "dual_unitaries", du)
        n, dim = self.group.order, du.shape[-1] if du.ndim else 0
        object.__setattr__(self, "dim", dim)
        if du.shape != (n, dim, dim):
            raise ValueError(f"dual unitaries shape {du.shape}")
        if largest_norm(du[0] - np.eye(self.dim), 1e-12)[0] > 1e-12:
            # The trivial character must act trivially for sum_g P_g = id.
            raise ValueError("dual_unitaries[0] must be the identity "
                             "(trivial character)")
        dm = _dual_mult(exps, top)
        # Homomorphism of automorphisms: du[s] du[t] equals du[dm[s, t]] up
        # to a phase, checked over a chunk of s at a time; a failure names
        # the first (s, t) in row-major order.
        for c in chunks(n, n * self.dim ** 2):
            target = du[dm[c]]
            with np.errstate(over="ignore", invalid="ignore"):   # refused below
                prod = du[c, None] @ du[None]
                phase = np.trace(adjoint(target) @ prod, axis1=-2, axis2=-1) / self.dim
                off = prod - phase[..., None, None] * target
            bad = np.abs(np.abs(phase) - 1) > 1e-9
            # Screened first: it refuses non-finite entries, which an SVD takes.
            if largest_norm(off, 1e-11)[1] is not None or bad.any():
                bad |= _svd_norms(off) > 1e-11
                s, t = divmod(int(np.flatnonzero(bad)[0]), n)
                raise ValueError(
                    f"dual action is not a homomorphism at ({c.start + s},{t})")

    def projection(self, g, x: np.ndarray) -> np.ndarray:
        """Fourier projection onto the g-component:
        P_g(x) = (1/|G^|) sum_tau conj(chi_tau(g)) beta_tau(x).
        With an index array g and a stack x, x[i] is projected onto the
        g[i]-component.  The average over characters is a ``group_mean``:
        one stacked conjugation per chunk of characters, each acting on the
        whole stack."""
        x = np.asarray(x, dtype=complex)
        u = np.expand_dims(self.dual_unitaries, tuple(range(1, x.ndim - 1)))
        return group_mean(lambda t: np.conj(self.chars[t][:, g])[..., None, None] *
                          (u[t] @ x @ adjoint(u[t])), x, self.group.order)

    def component_residual(self, values) -> float:
        """max_g ||x_g - P_g(x_g)|| over a family x indexed by the group."""
        values = np.asarray(values, dtype=complex)
        return largest_norm(values - self.projection(np.arange(len(values)),
                                                     values))[0]


def regular_graded_model(group: FiniteGroup):
    """The group-algebra model: carrier M_|G| in the group-element basis,
    dual action by the diagonal character unitaries, and the left-regular
    permutation unitaries as an exact graded representation (L_g sits in the
    g-component)."""
    n = group.order
    dual = np.stack([np.diag(row) for row in character_table(group)])
    algebra = GradedAlgebra(group=group, dual_unitaries=dual)
    left = np.zeros((n, n, n), dtype=complex)
    ids = np.arange(n)
    left[ids[:, None], group.mult, ids] = 1.0
    return algebra, left


def graded_correct(algebra: GradedAlgebra, values: np.ndarray,
                   tol: float) -> tuple[Correction, list]:
    """Correct an approximately graded approximately multiplicative unitary
    family into an exact representation with each value exactly in its
    grading component.  Returns the iterated corrector's Correction and the
    component residuals max_g ||rho(g) - P_g rho(g)||, one per iterate.

    For each g the component part c_g = P_g(psi(g)) must be within eps =
    UNITARIZE_EPS of psi(g) and invertible; the polar parts seed the
    iterated corrector (admitted below 1/17 as by ``correct_to_rep``), whose
    step is ``one_step`` and a check that each value stays in its component
    to 1e-12.  The parts of the whole family come from one stacked
    projection, their gaps from one screened norm, and their smallest
    singular values and polar parts from one batched SVD; a rejection names
    the first g that fails.
    """
    G, eps = algebra.group, UNITARIZE_EPS
    values = np.asarray(values, dtype=complex)
    if values.shape != (G.order, algebra.dim, algebra.dim):
        raise ValueError(f"values shape {values.shape}")
    parts = algebra.projection(np.arange(G.order), values)
    # A norm exceeds the float below eps exactly when it is >= eps.
    far = largest_norm(values - parts, np.nextafter(eps, 0.0))[1] is not None
    comps, s = _polar_parts(parts)
    singular = s[:, -1] <= 1e-10
    if far or singular.any():
        # Name the first g that fails either test, as a loop over g would.
        gaps = _svd_norms(values - parts)
        g = int(np.flatnonzero((gaps >= eps) | singular)[0])
        if gaps[g] >= eps:
            raise DefectTooLargeError(
                f"value at g={g} is {gaps[g]:.6g} away from its grading "
                f"component (needs < {eps:.6g})")
        raise DefectTooLargeError(
            f"component part at g={g} is numerically singular "
            f"(sigma_min = {s[g, -1]:.3e})")

    unital_gap = largest_norm(comps[G.identity] - np.eye(algebra.dim), 1e-10)[0]
    rho0 = ApproxRep(G, comps, unitary=True, unital=unital_gap <= 1e-10)
    residuals = [algebra.component_residual(comps)]

    def step(iteration, rep):
        rep = one_step(rep)
        res = algebra.component_residual(rep.values)
        residuals.append(res)
        if res > 1e-12:
            raise DefectTooLargeError(
                f"iterate {iteration} left its grading component "
                f"(residual {res:.3e})")
        return rep

    r0 = _admitted_defect(rho0)[0]
    return _iterate(rho0, r0, step, ApproxRep.defect, rho0.distance_to, tol,
                    "defect"), residuals
