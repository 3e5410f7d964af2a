"""Small references for the property tests: the dense route for the
block-stored G-algebras, and the ``eigh`` routes for the half-plane log and
the exponential of skew-Hermitian matrices.

Every element is one block-diagonal n x n matrix, the automorphism of g is
conjugation by the full block-permutation unitary W_g, and the quotient at
a tower level zeroes the blocks of its ideal.  This is the route the block
storage replaced; the property tests compare the two.  The lift, tower-rep
and tower-cocycle references are that route's trial runners.
"""

import numpy as np
from scipy.linalg import expm

from equifix.cocycles import coboundary, trivialize
from equifix.galgebra import GHom, matrix_algebra
from equifix.matfun import Blocks, operator_norm
from equifix.repcorrect import (LEVEL_ACCEPT_THRESHOLD, ApproxRep,
                                DefectTooLargeError, correct_to_rep,
                                equivariance_defect, intertwiner, symmetrize,
                                unitarize_values)
from equifix.scenarios import (exact_rep_values, make_group,
                               nontrivial_action_rep, random_skew,
                               random_unitary, trial_rng)


def eigh_half_plane_log(u):
    """Principal log of a stack (..., n, n) of unitaries within 1/2 of 1
    through one batched ``eigh``: there every eigenvalue argument is below
    2 arcsin(1/4) < pi/2, so log u = i arcsin((u - u*) / 2i) is a function of
    a Hermitian matrix.  The route the arcsin series replaced."""
    sines, v = np.linalg.eigh(-0.5j * (u - u.conj().swapaxes(-1, -2)))
    args = np.arcsin(np.clip(sines, -1.0, 1.0))
    x = (v * (1j * args)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (x - x.conj().swapaxes(-1, -2)) / 2


def eigh_exp_skew(x):
    """Exponential of a stack (..., n, n) of skew-Hermitian matrices through
    one batched ``eigh`` of the Hermitian -i x: unitary by construction.
    The route the Taylor series replaced."""
    x = (x - x.conj().swapaxes(-1, -2)) / 2
    theta, v = np.linalg.eigh(-1j * x)
    return (v * np.exp(1j * theta)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def offsets(blocks):
    return np.concatenate([[0], np.cumsum(blocks)]).astype(int)


def layout(blocks):
    """(size, block positions) per stack, in the order Blocks stores them:
    sizes ascending, blocks of one size in position order."""
    return [(b, [j for j, c in enumerate(blocks) if c == b])
            for b in sorted(set(blocks))]


def embed(blocks, x, live=None):
    """The dense block-diagonal matrices of x, an element (or stack) of the
    algebra on the blocks ``live`` (default: all) of an algebra with the
    given block sizes; the other blocks are zero."""
    live = list(range(len(blocks))) if live is None else live
    offs = offsets(blocks)
    out = np.zeros(x.lead + (offs[-1], offs[-1]), dtype=complex)
    for (_, positions), p in zip(layout([blocks[j] for j in live]), x.parts):
        for k, i in enumerate(positions):
            j = live[i]
            out[..., offs[j]:offs[j + 1], offs[j]:offs[j + 1]] = p[..., k, :, :]
    return out


def random_blocks(blocks, rng, lead=()):
    return Blocks(rng.standard_normal(lead + (len(pos), b, b)) +
                  1j * rng.standard_normal(lead + (len(pos), b, b))
                  for b, pos in layout(blocks))


def full_unitary(algebra, g):
    """W_g: block (perms[g][j], j) holds the unitary at the target."""
    offs = offsets(algebra.blocks)
    w = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    for j, p in enumerate(algebra.perms[g]):
        w[offs[p]:offs[p + 1], offs[j]:offs[j + 1]] = algebra.unitaries[g][p]
    return w


def dense_act(algebra):
    ws = [full_unitary(algebra, g) for g in range(algebra.group.order)]
    return lambda g, a: ws[g] @ a @ ws[g].conj().T


def level_mask(tower, n):
    offs = offsets(tower.algebra.blocks)
    mask = np.zeros((tower.algebra.dim,) * 2)
    for j in range(len(tower.algebra.blocks)):
        if j not in tower.ideals[n]:
            mask[offs[j]:offs[j + 1], offs[j]:offs[j + 1]] = 1.0
    return mask


def lift_trace(tower, phi, source_action, seed, tol=1e-12):
    """The dense lift: every level on the full algebra, zero-padded, with
    the live corner cut out by index arrays.  Returns (level, correction
    trace, equivariance residual, projection residual)."""
    A = tower.algebra
    H = source_action.source
    act = dense_act(A)
    top_mask = level_mask(tower, tower.top)
    seed_vals = embed(A.blocks, seed.values)
    phi_vals = seed_vals * top_mask
    for level in range(tower.top):
        mask = level_mask(tower, level)
        level_vals = seed_vals * mask
        live = np.flatnonzero(np.diag(mask))
        try:
            rho0 = unitarize_values(symmetrize(level_vals, act, source_action)
                                    [:, live[:, None], live])
        except DefectTooLargeError:
            continue
        if GHom(H, rho0, level=level).mult_defect() < LEVEL_ACCEPT_THRESHOLD:
            break
    embedding = np.zeros((A.dim, live.size))
    embedding[live, np.arange(live.size)] = 1.0

    def expand(sub):
        return embedding @ sub @ embedding.T

    def quotient(sub):
        return (expand(sub) * top_mask)[..., live[:, None], live]

    correction = correct_to_rep(ApproxRep(H, rho0), tol=tol, quotient=quotient)
    seed_sub = level_vals[:, live[:, None], live]
    u = intertwiner(ApproxRep(H, seed_sub), correction.rep, quotient=quotient)
    final = expand(u @ seed_sub @ u.conj().T)
    return (level, correction.trace, equivariance_defect(final, act, source_action),
            float(np.max(operator_norm(final * top_mask - phi_vals))))


def masked_skew(rng, n, dim):
    """A random_skew of size n masked to its leading dim x dim corner and
    normalized again."""
    k = random_skew(rng, n)
    k[dim:] = 0.0
    k[:, dim:] = 0.0
    return k / operator_norm(k)


def rep_tower_trace(s, trial):
    """The tower rep trial on dense 2dim x 2dim matrices."""
    rng = trial_rng(s.seed, trial)
    group = make_group(s.group["kind"], s.group.get("params"))
    dim = s.dimension
    base = exact_rep_values(s.group, group, dim, rng)
    vals = np.stack([np.kron(np.eye(2), b) for b in base])
    for g in range(1, group.order):
        vals[g] = vals[g] @ expm(s.magnitude * masked_skew(rng, 2 * dim, dim))
    keep = np.kron(np.diag([0.0, 1.0]), np.ones((dim, dim)))
    return correct_to_rep(ApproxRep(group, vals), tol=s.tolerance,
                          quotient=lambda a: a * keep).trace


def cocycle_tower_trace(s, trial):
    """The tower cocycle trial on one dense M_2dim with a hand-made mask."""
    rng = trial_rng(s.seed, trial)
    group = make_group(s.group["kind"], s.group.get("params"))
    dim = s.dimension
    action = nontrivial_action_rep(s.group, group, dim, rng)
    algebra = matrix_algebra(2 * dim, group, [np.kron(np.eye(2), a) for a in action])
    keep = np.kron(np.diag([0.0, 1.0]), np.ones((dim, dim)))
    v1, v2 = random_unitary(rng, dim), random_unitary(rng, dim)
    v = np.kron(np.diag([1.0, 0.0]), v1) + np.kron(np.diag([0.0, 1.0]), v2)
    w = coboundary(algebra, v)
    v0 = v @ expm(s.magnitude * masked_skew(rng, 2 * dim, dim))
    return trivialize(w, v0, tol=s.tolerance, quotient=lambda a: a * keep).trace
