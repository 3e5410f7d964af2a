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

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .groups import FiniteGroup
from .matfun import (Blocks, adjoint, exp_skew, identity_like, largest_norm,
                     operator_norm, principal_log_unitary, read_only_copy)
from .galgebra import GAlgebra, group_stack, max_pair_defect
from .repcorrect import DefectTooLargeError, ITERATION_CAP, _iterate

ONE_STEP_MAX_MISMATCH = 1.0 / 5
TRIVIALIZE_MAX_MISMATCH = 1.0 / 10


@dataclass(eq=False)
class Cocycle:
    """Unitary-valued map on a group, measured against the cocycle identity
    for the algebra's action; the values are Blocks of the algebra, or
    dense matrices for a one-block algebra.  They are copied and made
    read-only, so the cocycle defect is measured once and cached."""

    algebra: GAlgebra
    values: object               # (|G|, ...) Blocks, or (|G|, n, n)
    _defect: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        v = read_only_copy(group_stack(self.values, self.algebra.group.order))
        self.algebra.as_blocks(v)      # raises unless v fits the algebra
        worst = largest_norm(adjoint(v) @ v - identity_like(v), 1e-10)[0]
        if worst > 1e-10:
            raise ValueError(f"cocycle values must be unitary; defect {worst:.3e}")
        self.values = v

    @property
    def group(self) -> FiniteGroup:
        return self.algebra.group

    def defect(self) -> float:
        return self.defect_with_argmax()[0]

    def defect_with_argmax(self):
        """Max over (g, h) of || w(gh) - w(g) alpha_g(w(h)) || and the
        attaining pair."""
        if self._defect is None:
            self._defect = max_pair_defect(self.values, self.group.mult,
                                           self.algebra.act)
        return self._defect

    def mismatch(self, v: np.ndarray):
        """Max over g of || v alpha_g(v)* - w(g) || and the attaining g."""
        return largest_norm(coboundary_values(self.algebra, v) - self.values, -1.0)


def coboundary_values(algebra: GAlgebra, v):
    """The (|G|, ...) stack of v alpha_g(v)*."""
    return v @ adjoint(algebra.act(np.arange(algebra.group.order), v))


def coboundary(algebra: GAlgebra, v) -> Cocycle:
    """The cocycle g -> v alpha_g(v)* of a unitary v."""
    return Cocycle(algebra=algebra, values=coboundary_values(algebra, v))


def one_step_cobound(w: Cocycle, v):
    """One coboundary-correction step.  Requires w exact (defect <= 1e-11)
    and mismatch r <= 1/5; the output z satisfies
    || z alpha_g(z)* - w(g) || <= 10 r^2 and || z - v || <= 2r."""
    return _cobound_step(w, v, w.mismatch(v))


def _cobound_step(w: Cocycle, v, mismatch):
    """``one_step_cobound(w, v)``, given ``mismatch = w.mismatch(v)``."""
    cd = w.defect()
    if cd > 1e-11:
        raise DefectTooLargeError(
            f"cocycle must be exact before correction (defect {cd:.3e})")
    r, g = mismatch
    if r > ONE_STEP_MAX_MISMATCH:
        raise DefectTooLargeError(
            f"mismatch {r:.6g} exceeds 1/5 (attained at g={g})")
    # One (|G|, ...) stack over h, m[h] = v* alpha_h^{-1}(w(h)* v): one
    # paired action, one log and one mean over h.
    m = adjoint(v) @ w.algebra.act(w.group.inv, adjoint(w.values) @ v)
    return v @ exp_skew(principal_log_unitary(m).mean(axis=0))


@dataclass
class Trivialization:
    unitary: object
    iterations: int
    trace: list                     # (iteration, mismatch, distance_from_seed)
    quotient_drift: Optional[float] = None

    @property
    def mismatch(self) -> float:
        return self.trace[-1][1]


def trivialize(w: Cocycle, v0=None, tol: float = 1e-12,
               quotient: Optional[Callable] = None,
               max_iter: int = ITERATION_CAP) -> Trivialization:
    """Iterate the coboundary correction until v alpha_g(v)* = w(g) to tol.

    The seed defaults to the identity, which is admissible when the cocycle
    is within 1/10 of trivial; otherwise the caller supplies a seed with
    mismatch below 1/10.  With a quotient map kappa whose downstairs seed
    already trivializes kappa(w) exactly, kappa(v) = kappa(v0) is preserved;
    kappa takes one element or a stack.
    """
    A = w.algebra
    cd = w.defect()
    if cd > 1e-11:
        raise DefectTooLargeError(
            f"cocycle must be exact before trivialization (defect {cd:.3e}); "
            f"approximately multiplicative cocycles are reported, not corrected")
    if v0 is None:
        v0 = identity_like(w.values[0])
    elif not isinstance(v0, Blocks):
        v0 = np.asarray(v0, dtype=complex)

    r0, g = last = w.mismatch(v0)     # the newest iterate's, for its step
    if r0 >= TRIVIALIZE_MAX_MISMATCH:
        raise DefectTooLargeError(
            f"seed mismatch {r0:.6g} is not below 1/10 (attained at g={g})")
    if quotient is not None:
        down = largest_norm(quotient(coboundary_values(A, v0)) -
                            quotient(w.values), 1e-12)[0]
        if down > 1e-12:
            raise DefectTooLargeError(
                f"seed does not trivialize the cocycle downstairs (off by {down:.3e})")

    def measure(v):
        nonlocal last
        last = w.mismatch(v)
        return last[0]

    v, iterations, trace = _iterate(
        v0, r0, lambda it, v: _cobound_step(w, v, last), measure,
        lambda v: largest_norm(v - v0)[0], tol, max_iter, "mismatch")
    drift = None
    if quotient is not None:
        drift = largest_norm(quotient(v) - quotient(v0))[0]
    return Trivialization(unitary=v, iterations=iterations, trace=trace,
                          quotient_drift=drift)


def verify_integral_estimate(group: FiniteGroup, values: np.ndarray):
    """Check the averaging estimate behind the one-step corrections.

    For unitaries u(g) with r = max ||u(g) - 1|| <= 1/2, returns
    (lhs, bound, r, ||avg u||) where lhs = || avg u - exp(avg log u) || and
    bound = 5 r^2 / (2 (1 - 2r)), raising if lhs exceeds the bound by more
    than 1e-11 or if || avg u || exceeds 1 by more than 1e-12.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 3 or values.shape[0] != group.order:
        raise ValueError(f"values shape {values.shape} does not match group order")
    r = largest_norm(values - np.eye(values.shape[1]))[0]
    if r > 0.5:
        raise DefectTooLargeError(f"||u(g) - 1|| = {r:.6g} exceeds 1/2")
    avg = values.mean(axis=0)
    logavg = principal_log_unitary(values).mean(axis=0)
    lhs = operator_norm(avg - exp_skew(logavg))
    bound = 5 * r ** 2 / (2 * (1 - 2 * r)) if r < 0.5 else np.inf
    if lhs > bound + 1e-11:
        raise AssertionError(
            f"integral estimate violated: {lhs:.6e} > {bound:.6e} + 1e-11")
    norm_avg = operator_norm(avg)
    if norm_avg > 1 + 1e-12:
        raise AssertionError(f"||avg u|| = {norm_avg:.12f} exceeds 1")
    return lhs, bound, r, norm_avg
