"""Gradings of matrix algebras by finite abelian groups, realized through a
dual action, and the correction of approximately graded unitary families to
exact graded representations.

For an abelian group the grading components are the spectral subspaces of
an action of the dual group; the Fourier projections

    P_g(x) = (1/|G^|) sum_tau  conj(tau(g)) beta_tau(x)

recover them.  A projection takes an index array g over a stack of values
as well, as one stacked mean over the characters.  The graded corrector
projects the whole family onto its components at once, gates the gaps
with one screened norm, unitarizes with one batched SVD, and runs the
iterated representation correction, whose steps provably stay inside the
components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galgebra import chunks, group_mean
from .groups import FiniteGroup
from .matfun import UNITARIZE_EPS, adjoint, largest_norm, operator_norm
from .repcorrect import (ApproxRep, Correction, DefectTooLargeError,
                         correct_to_rep)


class NonAbelianError(ValueError):
    pass


def character_table(group: FiniteGroup) -> np.ndarray:
    """Character table chi[tau, g] of a finite abelian group, with entries
    rounded to exact roots of unity.

    Computed by simultaneously diagonalizing the commuting left-regular
    permutation matrices: a random real combination splits the common
    eigenspaces, each common eigenvector carries one character.  The table
    is validated for multiplicativity and row orthogonality, to 1e-10,
    after rounding.
    """
    if not group.is_abelian():
        raise NonAbelianError(f"{group.name} is not abelian")
    n = group.order
    ids = np.arange(n)
    orders = [group.element_order(g) for g in range(n)]
    # roots[m][k] = exp(2 pi i k / m), for each element order m.
    roots = {m: np.array([np.exp(2j * np.pi * k / m) for k in range(m)])
             for m in set(orders)}
    rng = np.random.default_rng(7)
    for _ in range(8):
        coeffs = rng.standard_normal(n)
        # sum_g coeffs[g] L_g, with L_g the left-regular permutation matrix
        # of g: entry (gh, h) is coeffs[g].
        combo = np.zeros((n, n))
        combo[group.mult, ids] = coeffs[:, None]
        # Permutation matrices are real-orthogonal and commute; the combo is
        # normal, and generically has simple spectrum.
        vals, vecs = np.linalg.eig(combo)
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        # lam[t, g] = v_t* L_g v_t = sum_h conj(v_t[gh]) v_t[h], for a chunk
        # of g at a time.
        lam = np.concatenate([np.einsum("ght,ht->tg", vecs[group.mult[c]].conj(),
                                        vecs) for c in chunks(n, n * n)], axis=1)
        if np.any(np.abs(np.abs(lam) - 1) > 1e-6):
            continue
        chars = np.empty((n, n), dtype=complex)
        for g, m in enumerate(orders):
            k = np.round(np.angle(lam[:, g]) * m / (2 * np.pi)).astype(int) % m
            chars[:, g] = roots[m][k]
        # Deduplicate and validate.
        rows = []
        for t in range(n):
            if not any(np.max(np.abs(chars[t] - r)) < 1e-8 for r in rows):
                rows.append(chars[t])
        if len(rows) != n:
            continue
        table = np.array(sorted(rows, key=lambda r: tuple(np.round(np.angle(r), 9))))
        # Put the trivial character first.
        triv = np.argmin([np.max(np.abs(r - 1)) for r in table])
        table[[0, triv]] = table[[triv, 0]]
        if _validate_characters(group, table, 1e-10):
            return table
    raise RuntimeError("failed to compute a valid character table")


def _validate_characters(group, table, tol):
    """Every row multiplicative, chi(gh) = chi(g) chi(h), to tol, and the
    rows orthonormal; one broadcast comparison per chunk of rows."""
    n = group.order
    for c in chunks(n, n * n):
        rows = table[c]
        if np.any(np.abs(rows[:, group.mult] -
                         rows[:, :, None] * rows[:, None, :]) > tol):
            return False
    gram = table @ table.conj().T / n
    return bool(np.max(np.abs(gram - np.eye(n))) < tol)


@dataclass(frozen=True, eq=False)
class GradedAlgebra:
    """A matrix algebra graded by a finite abelian group through a dual
    action: one conjugating unitary per character, with the trivial
    character acting as the identity."""

    group: FiniteGroup
    dim: int
    dual_unitaries: np.ndarray        # (|G^|, n, n), indexed like the table rows
    chars: np.ndarray                 # (|G^|, |G|) character table

    def __post_init__(self):
        if not self.group.is_abelian():
            raise NonAbelianError(f"{self.group.name} is not abelian; only "
                                  f"abelian gradings are supported")
        du = np.asarray(self.dual_unitaries, dtype=complex)
        object.__setattr__(self, "dual_unitaries", du)
        n = self.group.order
        if du.shape != (n, self.dim, self.dim):
            raise ValueError(f"dual unitaries shape {du.shape}")
        if largest_norm(du[0] - np.eye(self.dim), 1e-12)[0] > 1e-12:
            # The trivial character must act trivially for sum_g P_g = id.
            raise ValueError("dual_unitaries[0] must be the identity "
                             "(trivial character)")
        dm = self._dual_mult()
        object.__setattr__(self, "_dual_mult_table", dm)
        # Homomorphism of automorphisms: du[s] du[t] equals du[dm[s, t]] up
        # to a phase, checked over a chunk of s at a time; a failure names
        # the first (s, t) in row-major order.
        tol = 1e-12
        for c in chunks(n, n * self.dim ** 2):
            prod = du[c, None] @ du[None]
            target = du[dm[c]]
            phase = np.trace(adjoint(target) @ prod, axis1=-2, axis2=-1) / self.dim
            off = prod - phase[..., None, None] * target
            bad = np.abs(np.abs(phase) - 1) > 1e-9
            if bad.any() or largest_norm(off, tol * 10)[1] is not None:
                bad |= operator_norm(off) > tol * 10
                s, t = divmod(int(np.flatnonzero(bad)[0]), n)
                raise ValueError(
                    f"dual action is not a homomorphism at ({c.start + s},{t})")

    def _dual_mult(self):
        """dm[s, t]: the one row of the table within 1e-8 of the product of
        rows s and t, matched for a chunk of (s, t) pairs at a time."""
        chars = self.chars
        n = self.group.order
        dm = np.empty(n * n, dtype=np.intp)
        pairs = np.arange(n * n)
        for c in chunks(n * n, n * chars.shape[1]):
            s, t = divmod(pairs[c], n)
            prod = chars[s] * chars[t]
            hits = np.max(np.abs(chars[None] - prod[:, None]), axis=-1) < 1e-8
            if np.any(hits.sum(axis=-1) != 1):
                raise ValueError("character table is not closed under products")
            dm[c] = hits.argmax(axis=-1)
        return dm.reshape(n, n)

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
    chars = character_table(group)
    n = group.order
    dual = np.stack([np.diag(chars[t]) for t in range(n)])
    algebra = GradedAlgebra(group=group, dim=n, dual_unitaries=dual, chars=chars)
    left = np.zeros((n, n, n), dtype=complex)
    ids = np.arange(n)
    left[ids[:, None], group.mult, ids] = 1.0
    return algebra, left


def graded_correct(algebra: GradedAlgebra, values: np.ndarray,
                   tol: float = 1e-12) -> tuple[Correction, list]:
    """Correct an approximately graded approximately multiplicative unitary
    family into an exact representation with each value exactly in its
    grading component.  Returns the iterated corrector's Correction and the
    component residuals max_g ||rho(g) - P_g rho(g)||, one per iterate.

    For each g the component part c_g = P_g(psi(g)) must be within eps =
    UNITARIZE_EPS of psi(g) and invertible; the polar parts seed the
    iterated corrector, and every iterate is checked to stay in its
    component to 1e-12.  The parts of the whole family come from one
    stacked projection, their gaps from one screened norm, and their
    smallest singular values and polar parts from one batched SVD; a
    rejection names the first g that fails.
    """
    G, eps = algebra.group, UNITARIZE_EPS
    values = np.asarray(values, dtype=complex)
    if values.shape != (G.order, algebra.dim, algebra.dim):
        raise ValueError(f"values shape {values.shape}")
    parts = algebra.projection(np.arange(G.order), values)
    # A norm exceeds the float below eps exactly when it is >= eps.
    far = largest_norm(values - parts, np.nextafter(eps, 0.0))[1] is not None
    u, s, vh = np.linalg.svd(parts)
    singular = s[:, -1] <= 1e-10
    if far or singular.any():
        # Name the first g that fails either test, as a loop over g would.
        gaps = operator_norm(values - parts)
        g = int(np.flatnonzero((gaps >= eps) | singular)[0])
        if gaps[g] >= eps:
            raise DefectTooLargeError(
                f"value at g={g} is {gaps[g]:.6g} away from its grading "
                f"component (needs < {eps:.6g})")
        raise DefectTooLargeError(
            f"component part at g={g} is numerically singular "
            f"(sigma_min = {s[g, -1]:.3e})")
    comps = u @ vh

    unital_gap = largest_norm(comps[G.identity] - np.eye(algebra.dim), 1e-10)[0]
    rho0 = ApproxRep(G, comps, unitary=True, unital=unital_gap <= 1e-10)
    residuals = [algebra.component_residual(comps)]

    def check_components(iteration, rep):
        res = algebra.component_residual(rep.values)
        residuals.append(res)
        if res > 1e-12:
            raise DefectTooLargeError(
                f"iterate {iteration} left its grading component "
                f"(residual {res:.3e})")

    return correct_to_rep(rho0, tol=tol, on_iterate=check_components), residuals
