"""Unitary cocycles over a matrix G-algebra: the cocycle identity, the
one-step coboundary correction, and full trivialization.

A cocycle assigns a unitary w(g) to each group element with
w(gh) = w(g) alpha_g(w(h)); it is an ApproxRep twisted by the action, whose
defect measures that identity.  Given a unitary v whose coboundary
g -> v alpha_g(v)* is within r <= 1/5 of w, the one-step correction

    z = v exp( avg_h log( v* alpha_h^{-1}( w(h)* v ) ) )

squares the mismatch (at most 10 r^2) while moving v by at most 2r;
iterating from r < 1/10 produces an exact trivializer within 2r/(1-10r),
by the iteration driver and pinned-quotient split the rep corrector runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .groups import FiniteGroup
from .matfun import (Blocks, adjoint, exp_skew, largest_norm, principal_log_unitary,
                     readout_norm)
from .galgebra import GAlgebra
from .repcorrect import (ApproxRep, Correction, DefectTooLargeError, _iterate,
                         _pinned)

# A step takes mismatch r to at most CONTRACTION r^2.
CONTRACTION = 10
ONE_STEP_MAX_MISMATCH = 1.0 / 5
TRIVIALIZE_MAX_MISMATCH = 1.0 / CONTRACTION


def cocycle(algebra: GAlgebra, values) -> ApproxRep:
    """The unitary map g -> values[g], measured against the cocycle identity
    for the algebra's action.  The values are Blocks of the algebra, or
    dense matrices for a one-block algebra."""
    algebra.as_blocks(values)          # raises unless the values fit the algebra
    return ApproxRep(algebra.group, values, unital=False, act=algebra.act)


def _coboundary_values(act, group: FiniteGroup, v):
    """The (|G|, ...) stack of v act(g, v)*."""
    return v @ adjoint(act(np.arange(group.order), v))


def coboundary(algebra: GAlgebra, v) -> ApproxRep:
    """The cocycle g -> v alpha_g(v)* of a unitary v."""
    return cocycle(algebra, _coboundary_values(algebra.act, algebra.group, v))


def mismatch(w: ApproxRep, v):
    """Max over g of || v alpha_g(v)* - w(g) || and the attaining g."""
    return largest_norm(_coboundary_values(w.act, w.group, v) - w.values, -1.0)


def one_step_cobound(w: ApproxRep, v):
    """One coboundary-correction step.  Requires w exact (defect <= 1e-11,
    a screened gate) and mismatch r <= 1/5; the output z satisfies
    || z alpha_g(z)* - w(g) || <= 10 r^2 and || z - v || <= 2r."""
    if not w.defect_at_most(1e-11):
        raise DefectTooLargeError(
            f"cocycle must be exact before correction (defect {w.defect():.3e})")
    return _cobound_step(w, v, mismatch(w, v))


def _cobound_step(w: ApproxRep, v, measured):
    """``one_step_cobound(w, v)``, given ``measured = mismatch(w, v)``; the
    caller has checked that w is exact."""
    r, g = measured
    if r > ONE_STEP_MAX_MISMATCH:
        raise DefectTooLargeError(
            f"mismatch {r:.6g} exceeds 1/5 (attained at g={g})")
    # One (|G|, ...) stack over h, m[h] = v* alpha_h^{-1}(w(h)* v): one
    # paired action, one log and one mean over h.
    m = adjoint(v) @ w.act(w.group.inv, adjoint(w.values) @ v)
    return v @ exp_skew(principal_log_unitary(m).mean(axis=0))


def trivialize(w: ApproxRep, v0, tol: float,
               pin: Optional[tuple] = None) -> Correction:
    """Iterate the coboundary correction until v alpha_g(v)* = w(g) to tol.

    The seed v0 must have mismatch below 1/10, as the identity has when
    the cocycle is within 1/10 of trivial.  With ``pin=(tower, level)``, w
    over that level, the seed must already trivialize w on the top quotient's blocks
    (mismatch <= 1e-12), which are split off as in ``correct_to_rep``.
    The cocycle's exactness (defect <= 1e-11) is one screened gate per
    call, which on an exact cocycle ends after the Frobenius pass; its
    steps do not repeat it.
    """
    if not w.defect_at_most(1e-11):
        raise DefectTooLargeError(
            f"cocycle must be exact before trivialization (defect {w.defect():.3e}); "
            f"approximately multiplicative cocycles are reported, not corrected")
    if not isinstance(v0, Blocks):
        v0 = np.asarray(v0, dtype=complex)

    r0, g = last = mismatch(w, v0)     # the newest iterate's, for its step
    if r0 >= TRIVIALIZE_MAX_MISMATCH:
        raise DefectTooLargeError(
            f"seed mismatch {r0:.6g} is not below 1/{CONTRACTION} (attained at g={g})")
    moving, start, frozen = w, v0, (-1.0, None)
    if pin is not None:
        down, frozen, keep, start, attach = _pinned(
            pin, r0, tol, v0, lambda down: largest_norm(
                down(_coboundary_values(w.act, w.group, v0) - w.values), -1.0),
            "seed does not trivialize the cocycle downstairs (off by {:.3e})")
        algebra = pin[0].level(pin[1])
        rest = [j for j in range(len(algebra.blocks)) if j not in keep]
        moving = cocycle(algebra.restrict(rest), algebra.split(w.values, keep)[0])

    def measure(v):
        nonlocal last
        last = mismatch(moving, v)
        return max(last[0], frozen[0])

    correction = _iterate(start, r0, lambda it, v: _cobound_step(moving, v, last),
                          measure, lambda v: largest_norm(v - start)[0], tol, "mismatch")
    if pin is not None:
        correction.last = attach(correction.last)
        correction.quotient_drift = readout_norm(down(correction.last - v0), 0.0)
    return correction


def verify_integral_estimate(group: FiniteGroup, values: np.ndarray):
    """Check the averaging estimate behind the one-step corrections.

    For unitaries u(g) with r = max ||u(g) - 1|| <= 1/2, returns
    (lhs, bound, r, ||avg u||) where lhs = || avg u - exp(avg log u) || and
    bound = 5 r^2 / (2 (1 - 2r)).  The estimate says lhs <= bound and
    ||avg u|| <= 1; the caller's checks compare them, so a violation is a
    failed bound rather than an exception.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 3 or values.shape[0] != group.order:
        raise ValueError(f"values shape {values.shape} does not match group order")
    r = largest_norm(values - np.eye(values.shape[1]))[0]
    if r > 0.5:
        raise DefectTooLargeError(f"||u(g) - 1|| = {r:.6g} exceeds 1/2")
    avg = values.mean(axis=0)
    logavg = principal_log_unitary(values).mean(axis=0)
    lhs = largest_norm(avg - exp_skew(logavg))[0]
    bound = 5 * r ** 2 / (2 * (1 - 2 * r)) if r < 0.5 else np.inf
    return lhs, bound, r, largest_norm(avg)[0]
