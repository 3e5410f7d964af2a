"""Gradings of matrix algebras by finite abelian groups, realized through a
dual action, and the correction of approximately graded unitary families to
exact graded representations.

For an abelian group the grading components are the spectral subspaces of
an action of the dual group; the Fourier projections

    P_g(x) = (1/|G^|) sum_tau  conj(tau(g)) beta_tau(x)

recover them.  The graded corrector projects each value onto its component,
unitarizes, and runs the iterated representation correction, whose steps
provably stay inside the components.
"""

from __future__ import annotations

from dataclasses import dataclass


import numpy as np

from .groups import FiniteGroup
from .matfun import UNITARIZE_EPS, largest_norm, polar_unitary
from .repcorrect import (ApproxRep, DefectTooLargeError, correct_to_rep,
                         ITERATION_CAP)


class NonAbelianError(ValueError):
    pass


def character_table(group: FiniteGroup, tol: float = 1e-10) -> np.ndarray:
    """Character table chi[tau, g] of a finite abelian group, with entries
    rounded to exact roots of unity.

    Computed by simultaneously diagonalizing the commuting left-regular
    permutation matrices: a random real combination splits the common
    eigenspaces, each common eigenvector carries one character.  The table
    is validated for multiplicativity and row orthogonality after rounding.
    """
    if not group.is_abelian():
        raise NonAbelianError(f"{group.name} is not abelian")
    n = group.order
    left = np.zeros((n, n, n))
    for g in range(n):
        for h in range(n):
            left[g, group.mul(g, h), h] = 1.0
    rng = np.random.default_rng(7)
    for _ in range(8):
        coeffs = rng.standard_normal(n)
        combo = np.tensordot(coeffs, left, axes=(0, 0))
        # Permutation matrices are real-orthogonal and commute; the combo is
        # normal, and generically has simple spectrum.
        vals, vecs = np.linalg.eig(combo)
        chars = np.empty((n, n), dtype=complex)
        ok = True
        for t in range(n):
            v = vecs[:, t]
            v = v / np.linalg.norm(v)
            for g in range(n):
                lam = v.conj() @ (left[g] @ v)
                if abs(abs(lam) - 1) > 1e-6:
                    ok = False
                    break
                order = group.element_order(g)
                k = int(np.round(np.angle(lam) * order / (2 * np.pi))) % order
                chars[t, g] = np.exp(2j * np.pi * k / order)
            if not ok:
                break
        if not ok:
            continue
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
        if _validate_characters(group, table, tol):
            return table
    raise RuntimeError("failed to compute a valid character table")


def _validate_characters(group, table, tol):
    n = group.order
    for t in range(n):
        for g in range(n):
            for h in range(n):
                if abs(table[t, group.mul(g, h)] - table[t, g] * table[t, h]) > tol:
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
        tol = 1e-12
        for s in range(n):
            for t in range(n):
                prod = du[s] @ du[t]
                target = du[dm[s, t]]
                # Homomorphism of automorphisms: equal up to a phase.
                phase = np.trace(target.conj().T @ prod) / self.dim
                if abs(abs(phase) - 1) > 1e-9 or \
                        largest_norm(prod - phase * target, tol * 10)[0] > tol * 10:
                    raise ValueError(
                        f"dual action is not a homomorphism at ({s},{t})")

    def _dual_mult(self):
        n = self.group.order
        dm = np.empty((n, n), dtype=np.intp)
        for s in range(n):
            for t in range(n):
                prod = self.chars[s] * self.chars[t]
                hits = [r for r in range(n)
                        if np.max(np.abs(self.chars[r] - prod)) < 1e-8]
                if len(hits) != 1:
                    raise ValueError("character table is not closed under products")
                dm[s, t] = hits[0]
        return dm

    def dual_act(self, tau: int, x: np.ndarray) -> np.ndarray:
        u = self.dual_unitaries[tau]
        return u @ np.asarray(x, dtype=complex) @ u.conj().T

    def projection(self, g: int, x: np.ndarray) -> np.ndarray:
        """Fourier projection onto the g-component:
        P_g(x) = (1/|G^|) sum_tau conj(chi_tau(g)) beta_tau(x)."""
        n = self.group.order
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for t in range(n):
            acc += np.conj(self.chars[t, g]) * self.dual_act(t, x)
        return acc / n

    def component_residual(self, values) -> float:
        """max_g ||x_g - P_g(x_g)|| over a family x indexed by the group."""
        return largest_norm(np.stack([x - self.projection(g, x)
                                      for g, x in enumerate(values)]))[0]


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
    for g in range(n):
        for h in range(n):
            left[g, group.mul(g, h), h] = 1.0
    return algebra, left


@dataclass
class GradedCorrection:
    rep: ApproxRep
    iterations: int
    trace: list
    component_residuals: list       # per iterate: max_g ||rho(g) - P_g rho(g)||
    distance: float


def graded_correct(algebra: GradedAlgebra, values: np.ndarray,
                   tol: float = 1e-12, component_tol: float = 1e-12,
                   eps: float = UNITARIZE_EPS) -> GradedCorrection:
    """Correct an approximately graded approximately multiplicative unitary
    family into an exact representation with each value exactly in its
    grading component.

    For each g the component part c_g = P_g(psi(g)) must be within eps of
    psi(g) and invertible; the polar parts seed the iterated corrector, and
    every iterate is checked to stay in its component.
    """
    G = algebra.group
    values = np.asarray(values, dtype=complex)
    if values.shape != (G.order, algebra.dim, algebra.dim):
        raise ValueError(f"values shape {values.shape}")
    comps = np.empty_like(values)
    for g in range(G.order):
        c = algebra.projection(g, values[g])
        # A norm exceeds the float below eps exactly when it is >= eps.
        gap = largest_norm(values[g] - c, np.nextafter(eps, 0.0))[0]
        if gap >= eps:
            raise DefectTooLargeError(
                f"value at g={g} is {gap:.6g} away from its grading component "
                f"(needs < {eps:.6g})")
        s = np.linalg.svd(c, compute_uv=False)
        if s[-1] <= 1e-10:
            raise DefectTooLargeError(
                f"component part at g={g} is numerically singular "
                f"(sigma_min = {s[-1]:.3e})")
        comps[g] = polar_unitary(c)

    unital_gap = largest_norm(comps[G.identity] - np.eye(algebra.dim), 1e-10)[0]
    rho0 = ApproxRep(G, comps, unitary=True, unital=unital_gap <= 1e-10)
    residuals = [algebra.component_residual(comps)]

    def check_components(iteration, rep):
        res = algebra.component_residual(rep.values)
        residuals.append(res)
        if res > component_tol:
            raise DefectTooLargeError(
                f"iterate {iteration} left its grading component "
                f"(residual {res:.3e})")

    result = correct_to_rep(rho0, tol=tol, max_iter=ITERATION_CAP,
                            on_iterate=check_components)
    distance = rho0.distance_to(result.rep)
    return GradedCorrection(rep=result.rep, iterations=result.iterations,
                            trace=result.trace, component_residuals=residuals,
                            distance=distance)
