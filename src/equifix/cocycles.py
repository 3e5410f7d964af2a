"""Cocycle identity checking, the one-step coboundary correction, and full
trivialization of unitary cocycles over a matrix G-algebra.

A cocycle assigns a unitary w(g) to each group element with
w(gh) = w(g) alpha_g(w(h)).  Given a unitary v whose coboundary
g -> v alpha_g(v)* is within r <= 1/5 of w, the one-step correction

    z = v exp( avg_h log( v* alpha_h^{-1}( w(h)* v ) ) )

squares the mismatch (at most 10 r^2) while moving v by at most 2r;
iterating from r < 1/10 produces an exact trivializer within 2r/(1-10r).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .groups import FiniteGroup
from .matfun import (exp_skew, operator_norm, principal_log_unitary,
                     unitarity_defect)
from .galgebra import GAlgebra
from .repcorrect import ConvergenceError, DefectTooLargeError, ITERATION_CAP

ONE_STEP_MAX_MISMATCH = 1.0 / 5
TRIVIALIZE_MAX_MISMATCH = 1.0 / 10


@dataclass(eq=False)
class Cocycle:
    """Unitary-valued map on a group, measured against the cocycle identity
    for the algebra's action."""

    algebra: GAlgebra
    values: np.ndarray           # (|G|, n, n)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        G = self.algebra.group
        if v.ndim != 3 or v.shape[0] != G.order or v.shape[1] != v.shape[2]:
            raise ValueError(f"values shape {v.shape} does not match group order")
        if v.shape[1] != self.algebra.dim:
            raise ValueError("value dimension does not match the algebra")
        worst = max(unitarity_defect(v[g]) for g in range(G.order))
        if worst > 1e-10:
            raise ValueError(f"cocycle values must be unitary; defect {worst:.3e}")
        self.values = v

    @property
    def group(self) -> FiniteGroup:
        return self.algebra.group

    def defect(self) -> float:
        return self.defect_with_argmax()[0]

    def defect_with_argmax(self):
        """Max over (g, h) of || w(gh) - w(g) alpha_g(w(h)) ||."""
        G = self.group
        worst, arg = 0.0, (0, 0)
        for g in range(G.order):
            for h in range(G.order):
                lhs = self.values[G.mul(g, h)]
                rhs = self.values[g] @ self.algebra.act(g, self.values[h])
                d = operator_norm(lhs - rhs)
                if d > worst:
                    worst, arg = d, (g, h)
        return worst, arg

    def mismatch(self, v: np.ndarray):
        """Max over g of || v alpha_g(v)* - w(g) || and the attaining g."""
        G = self.group
        worst, arg = 0.0, 0
        for g in range(G.order):
            cob = v @ self.algebra.act(g, v).conj().T
            d = operator_norm(cob - self.values[g])
            if d > worst:
                worst, arg = d, g
        return worst, arg


def cocycle_defect(w: Cocycle) -> float:
    """Max over pairs of || w(gh) - w(g) alpha_g(w(h)) ||."""
    return w.defect()


def coboundary(algebra: GAlgebra, v: np.ndarray) -> Cocycle:
    """The cocycle g -> v alpha_g(v)* of a unitary v."""
    G = algebra.group
    vals = np.stack([v @ algebra.act(g, v).conj().T for g in range(G.order)])
    return Cocycle(algebra=algebra, values=vals)


def one_step_cobound(w: Cocycle, v: np.ndarray, exact_tol: float = 1e-11) -> np.ndarray:
    """One coboundary-correction step.  Requires w exact (defect <= 1e-11)
    and mismatch r <= 1/5; the output z satisfies
    || z alpha_g(z)* - w(g) || <= 10 r^2 and || z - v || <= 2r."""
    cd = w.defect()
    if cd > exact_tol:
        raise DefectTooLargeError(
            f"cocycle must be exact before correction (defect {cd:.3e})")
    r, g = w.mismatch(v)
    if r > ONE_STEP_MAX_MISMATCH:
        raise DefectTooLargeError(
            f"mismatch {r:.6g} exceeds 1/5 (attained at g={g})")
    A = w.algebra
    G = w.group
    v_adj = v.conj().T
    # One (|G|, n, n) stack over h: m[h] = v* alpha_h^{-1}(w(h)* v).
    m = np.stack([v_adj @ A.act(G.inverse(h), w.values[h].conj().T @ v)
                  for h in G.elements()])
    return v @ exp_skew(principal_log_unitary(m).mean(axis=0))


@dataclass
class Trivialization:
    unitary: np.ndarray
    iterations: int
    trace: list                     # (iteration, mismatch, distance_from_seed)
    quotient_drift: Optional[float] = None

    @property
    def mismatch(self) -> float:
        return self.trace[-1][1]


def trivialize(w: Cocycle, v0: Optional[np.ndarray] = None, tol: float = 1e-12,
               quotient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
               max_iter: int = ITERATION_CAP) -> Trivialization:
    """Iterate the coboundary correction until v alpha_g(v)* = w(g) to tol.

    The seed defaults to the identity, which is admissible when the cocycle
    is within 1/10 of trivial; otherwise the caller supplies a seed with
    mismatch below 1/10.  With a quotient map kappa whose downstairs seed
    already trivializes kappa(w) exactly, kappa(v) = kappa(v0) is preserved.
    """
    A = w.algebra
    G = w.group
    cd = w.defect()
    if cd > 1e-11:
        raise DefectTooLargeError(
            f"cocycle must be exact before trivialization (defect {cd:.3e}); "
            f"approximately multiplicative cocycles are reported, not corrected")
    if v0 is None:
        v0 = np.eye(A.dim, dtype=complex)
    v0 = np.asarray(v0, dtype=complex)
    r0, g = w.mismatch(v0)
    if r0 >= TRIVIALIZE_MAX_MISMATCH:
        raise DefectTooLargeError(
            f"seed mismatch {r0:.6g} is not below 1/10 (attained at g={g})")
    if quotient is not None:
        down = max(operator_norm(quotient(v0 @ A.act(g, v0).conj().T) -
                                 quotient(w.values[g]))
                   for g in range(G.order))
        if down > 1e-12:
            raise DefectTooLargeError(
                f"seed does not trivialize the cocycle downstairs (off by {down:.3e})")
    v = v0
    trace = [(0, r0, 0.0)]
    iterations = 0
    if r0 > tol:
        for it in range(1, max_iter + 1):
            v = one_step_cobound(w, v)
            iterations = it
            r, _ = w.mismatch(v)
            trace.append((it, r, operator_norm(v - v0)))
            if r <= tol:
                break
        else:
            raise ConvergenceError(
                f"mismatch still {trace[-1][1]:.3e} after {max_iter} iterations",
                trace)
    drift = None
    if quotient is not None:
        drift = operator_norm(quotient(v) - quotient(v0))
    return Trivialization(unitary=v, iterations=iterations, trace=trace,
                          quotient_drift=drift)


def verify_integral_estimate(group: FiniteGroup, values: np.ndarray,
                             slack: float = 1e-11):
    """Check the averaging estimate behind the one-step corrections.

    For unitaries u(g) with r = max ||u(g) - 1|| <= 1/2, returns the pair
    (lhs, bound) where lhs = || avg u - exp(avg log u) || and
    bound = 5 r^2 / (2 (1 - 2r)), raising if lhs exceeds the bound or if
    || avg u || exceeds 1 (plus slack).
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 3 or values.shape[0] != group.order:
        raise ValueError(f"values shape {values.shape} does not match group order")
    r = float(np.max(operator_norm(values - np.eye(values.shape[1]))))
    if r > 0.5:
        raise DefectTooLargeError(f"||u(g) - 1|| = {r:.6g} exceeds 1/2")
    avg = values.mean(axis=0)
    logavg = principal_log_unitary(values).mean(axis=0)
    lhs = operator_norm(avg - exp_skew(logavg))
    bound = 5 * r ** 2 / (2 * (1 - 2 * r)) if r < 0.5 else np.inf
    if lhs > bound + slack:
        raise AssertionError(
            f"integral estimate violated: {lhs:.6e} > {bound:.6e} + slack")
    norm_avg = operator_norm(avg)
    if norm_avg > 1 + 1e-12:
        raise AssertionError(f"||avg u|| = {norm_avg:.12f} exceeds 1")
    return lhs, bound
