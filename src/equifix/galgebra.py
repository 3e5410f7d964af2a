"""Finite-dimensional unital G-algebras and quotient towers.

A G-algebra here is a block direct sum of matrix algebras carrying a group
action given per group element by a block permutation plus per-block
unitaries; every automorphism of a finite-dimensional C*-algebra has this
form.  Elements are dense complex matrices of the full dimension with
block-diagonal support.  A Tower adds an increasing chain of invariant
ideals (unions of blocks); quotients are realized by zeroing the blocks of
the ideal, which makes the compatibility of the quotient maps exact.

The block mask is built once per algebra and kept read-only;
``block_mask()`` hands out a writable copy.  ``act`` and ``conform`` take a
single element or a stack ``(..., n, n)``.  Every action still checks that
its argument is block-diagonal, but ``conform`` measures the off-block part
with an SVD only when that part has a non-zero entry, so an element that
is already block-diagonal costs a few elementwise passes and no SVD.  ``mult_defect_norms`` measures ||v(gh) - v(g) v(h)|| for
every pair with one stacked product and one batched norm per g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .groups import FiniteGroup, haar_average
from .matfun import operator_norm


class BlockMismatchError(ValueError):
    pass


def _block_offsets(blocks):
    offs = [0]
    for b in blocks:
        offs.append(offs[-1] + b)
    return offs


@dataclass(frozen=True, eq=False)
class GAlgebra:
    """Block direct sum of matrix algebras with a finite-group action.

    ``perms[g][j]`` is the target position of block j under the action of g;
    ``unitaries[g][p]`` is the unitary applied at target position p.  The
    automorphism of g acts as a |-> W_g a W_g* where W_g is the product of
    the block permutation and the block-diagonal unitary.
    """

    blocks: tuple
    group: FiniteGroup
    perms: np.ndarray          # (|G|, K) int
    unitaries: tuple           # per g: tuple of per-target-block unitaries
    action_tol: float = 1e-12
    _full: tuple = field(default=None, repr=False)
    _mask: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        perms = np.asarray(self.perms, dtype=np.intp)
        object.__setattr__(self, "perms", perms)
        K = len(blocks)
        if perms.shape != (self.group.order, K):
            raise ValueError(f"perms shape {perms.shape}, expected {(self.group.order, K)}")
        offs = _block_offsets(blocks)
        n = offs[-1]
        mask = np.zeros((n, n))
        for j in range(K):
            mask[offs[j]:offs[j + 1], offs[j]:offs[j + 1]] = 1.0
        mask.flags.writeable = False
        object.__setattr__(self, "_mask", mask)
        full = []
        for g in range(self.group.order):
            perm = perms[g]
            if sorted(perm.tolist()) != list(range(K)):
                raise ValueError(f"perms[{g}] is not a permutation of blocks")
            w = np.zeros((n, n), dtype=complex)
            for j in range(K):
                p = int(perm[j])
                if blocks[p] != blocks[j]:
                    raise BlockMismatchError(
                        f"action of g={g} maps block {j} (dim {blocks[j]}) to "
                        f"position {p} (dim {blocks[p]})")
                u = np.asarray(self.unitaries[g][p], dtype=complex)
                if u.shape != (blocks[p], blocks[p]):
                    raise ValueError(f"unitaries[{g}][{p}] has shape {u.shape}")
                w[offs[p]:offs[p + 1], offs[j]:offs[j + 1]] = u
            full.append(w)
        object.__setattr__(self, "_full", tuple(full))
        # The stored data must compose: Ad(W_g) Ad(W_h) = Ad(W_gh).  Checked
        # on random block-diagonal elements; skipped for very large groups.
        if self.group.order <= 64:
            defect = self.action_defect(samples=1)
            if defect > self.action_tol:
                raise ValueError(
                    f"action data is not a homomorphism (defect {defect:.3e})")

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    @property
    def offsets(self):
        return _block_offsets(self.blocks)

    def action_unitary(self, g: int) -> np.ndarray:
        return self._full[g]

    def act(self, g: int, a: np.ndarray) -> np.ndarray:
        """Apply the automorphism of g: block permutation then conjugation.
        ``a`` is one element or a stack (..., n, n) of elements."""
        a = self.conform(a)
        w = self._full[g]
        return w @ a @ w.conj().T

    def conform(self, a, tol: float = 1e-10) -> np.ndarray:
        """Check that a (one element or a stack) is block-diagonal for this
        algebra within tol, and return it with the off-block part zeroed.
        The off-block norm is only computed when that part is non-zero."""
        a = np.asarray(a, dtype=complex)
        n = self.dim
        if a.ndim < 2 or a.shape[-2:] != (n, n):
            raise BlockMismatchError(f"element shape {a.shape}, algebra dim {n}")
        off = a * (1 - self._mask)
        if np.any(off):
            worst = float(np.max(operator_norm(off)))
            if worst > tol:
                raise BlockMismatchError(
                    f"element has off-block mass {worst:.3e} (tol {tol:.1e})")
        return a * self._mask

    def block_mask(self) -> np.ndarray:
        """A fresh writable copy of the 0/1 block-diagonal mask."""
        return self._mask.copy()

    def embed_blocks(self, block_values: Sequence[np.ndarray]) -> np.ndarray:
        offs = self.offsets
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for j, v in enumerate(block_values):
            if v is None:
                continue
            v = np.asarray(v, dtype=complex)
            out[offs[j]:offs[j + 1], offs[j]:offs[j + 1]] = v
        return out

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def action_defect(self, rng_seed: int = 0, samples: int = 2) -> float:
        """Max over (g, h) of ||act(g, act(h, a)) - act(gh, a)|| on random
        block-diagonal test elements, plus the identity-acts-trivially
        defect.  Should be at rounding level for a genuine action."""
        rng = np.random.default_rng(rng_seed)
        worst = 0.0
        mask = self._mask
        n = self.dim
        tests = [mask * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                 for _ in range(samples)]
        e = self.group.identity
        for a in tests:
            worst = max(worst, operator_norm(self.act(e, a) - a))
            for g in range(self.group.order):
                ga = self.act(g, a)
                for h in range(self.group.order):
                    lhs = self.act(h, ga)
                    rhs = self.act(self.group.mul(h, g), a)
                    worst = max(worst, operator_norm(lhs - rhs))
        return worst


def matrix_algebra(n: int, group: FiniteGroup,
                   action_unitaries: Optional[Sequence[np.ndarray]] = None,
                   action_tol: float = 1e-12) -> GAlgebra:
    """Single-block M_n with the action g |-> Ad(u_g) (trivial if omitted)."""
    if action_unitaries is None:
        action_unitaries = [np.eye(n, dtype=complex) for _ in range(group.order)]
    perms = np.zeros((group.order, 1), dtype=np.intp)
    unitaries = tuple((np.asarray(u, dtype=complex),) for u in action_unitaries)
    return GAlgebra(blocks=(n,), group=group, perms=perms, unitaries=unitaries,
                    action_tol=action_tol)


def trivial_action_algebra(blocks, group: FiniteGroup) -> GAlgebra:
    K = len(blocks)
    perms = np.tile(np.arange(K, dtype=np.intp), (group.order, 1))
    unitaries = tuple(tuple(np.eye(int(b), dtype=complex) for b in blocks)
                      for _ in range(group.order))
    return GAlgebra(blocks=tuple(blocks), group=group, perms=perms, unitaries=unitaries)


@dataclass(frozen=True, eq=False)
class Tower:
    """A G-algebra with an increasing chain of invariant block ideals
    J_0 <= J_1 <= ... <= J_N; the quotient at level n zeroes the blocks of
    J_n, and the top quotient is by J_N."""

    algebra: GAlgebra
    ideals: tuple   # tuple of frozensets of block indices

    def __post_init__(self):
        ideals = tuple(frozenset(int(b) for b in j) for j in self.ideals)
        object.__setattr__(self, "ideals", ideals)
        if not ideals:
            raise ValueError("tower needs at least one ideal level")
        if len(ideals) > 33:
            raise ValueError("towers are limited to 32 proper levels")
        K = len(self.algebra.blocks)
        prev = None
        for i, j in enumerate(ideals):
            if any(b < 0 or b >= K for b in j):
                raise ValueError(f"ideal {i} references unknown blocks")
            if prev is not None and not prev <= j:
                raise ValueError(f"ideal chain not increasing at level {i}")
            prev = j
            for g in range(self.algebra.group.order):
                image = frozenset(int(self.algebra.perms[g][b]) for b in j)
                if image != j:
                    raise ValueError(
                        f"ideal {i} is not invariant under the action of g={g}")

    @property
    def levels(self) -> int:
        return len(self.ideals)

    @property
    def top(self) -> int:
        """Index of the top quotient level (quotient by the largest ideal)."""
        return len(self.ideals) - 1

    def level_mask(self, n: int) -> np.ndarray:
        A = self.algebra
        mask = A.block_mask()
        offs = A.offsets
        for b in self.ideals[n]:
            mask[offs[b]:offs[b + 1], offs[b]:offs[b + 1]] = 0.0
        return mask

    def project(self, n: int, m: int, a: np.ndarray) -> np.ndarray:
        """Quotient map pi_{n,m} from level m to level n (m <= n): zeroes the
        blocks of J_n.  Compositions pi_{n,m} o pi_{m,l} = pi_{n,l} hold
        exactly because zeroing is nested."""
        if not 0 <= m <= n <= self.top:
            raise ValueError(f"levels must satisfy 0 <= m <= n <= {self.top}, "
                             f"got (n={n}, m={m})")
        a = self.algebra.conform(a)
        return a * self.level_mask(n)

    def project_to_top(self, m: int, a: np.ndarray) -> np.ndarray:
        return self.project(self.top, m, a)

    def invariance_defect_at_top(self, x: np.ndarray) -> float:
        # The induced action on a quotient is the same conjugation; invariant
        # ideals stay zeroed because the block permutation preserves them.
        A = self.algebra
        return max(operator_norm(A.act(g, x) - x) for g in range(A.group.order))


def invariant_lift(tower: Tower, x: np.ndarray,
                   lift: Optional[np.ndarray] = None,
                   invariance_tol: float = 1e-10) -> np.ndarray:
    """Lift an invariant element of the top quotient to an invariant element
    of the full algebra, by averaging an arbitrary set-theoretic lift.

    The result a satisfies act(g, a) = a for all g (to rounding) and
    projects to the average of the orbit of x; when x is exactly invariant
    this equals x itself, in general it is within the measured invariance
    defect of x.
    """
    A = tower.algebra
    x = A.conform(x) * tower.level_mask(tower.top)
    defect = tower.invariance_defect_at_top(x)
    if defect > invariance_tol:
        raise ValueError(
            f"element is not invariant at the top quotient: defect {defect:.3e}")
    if lift is None:
        lift = x
    else:
        lift = A.conform(lift)
        if operator_norm(tower.project_to_top(0, lift) - x) > invariance_tol:
            raise ValueError("supplied lift does not project to x")
    return haar_average(A.group, lambda g: A.act(g, lift))


def commutant_expectation(images, a, relation_tol: float = 1e-10) -> np.ndarray:
    """Conditional expectation onto the relative commutant of a unital copy
    of a finite-dimensional algebra.

    ``images`` is a list, one entry per matrix summand, each an array of
    shape (r, r, n, n) whose (j, k) slot is the image of the matrix unit
    e_{j+1,k+1} of that summand.  The images must satisfy the matrix-unit
    relations and their diagonals must sum to the identity.  Returns
    E(a) = sum_l sum_k  lam(e^{(l)}_{k,1}) a lam(e^{(l)}_{1,k}).
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    diag_sum = np.zeros((n, n), dtype=complex)
    for l, block in enumerate(images):
        block = np.asarray(block, dtype=complex)
        r = block.shape[0]
        if block.shape != (r, r, n, n):
            raise ValueError(f"summand {l} has shape {block.shape}")
        for j in range(r):
            for k in range(r):
                if operator_norm(block[j, k].conj().T - block[k, j]) > relation_tol:
                    raise ValueError(
                        f"summand {l}: adjoint relation fails at ({j},{k})")
                for p in range(r):
                    for q in range(r):
                        prod = block[j, k] @ block[p, q]
                        want = block[j, q] if k == p else np.zeros((n, n))
                        if operator_norm(prod - want) > relation_tol:
                            raise ValueError(
                                f"summand {l}: matrix-unit product relation "
                                f"fails at ({j},{k})({p},{q})")
            diag_sum += block[j, j]
    if operator_norm(diag_sum - np.eye(n)) > relation_tol:
        raise ValueError("matrix-unit diagonals do not sum to the identity")
    out = np.zeros((n, n), dtype=complex)
    for block in images:
        block = np.asarray(block, dtype=complex)
        r = block.shape[0]
        for k in range(r):
            out += block[k, 0] @ a @ block[0, k]
    return out


@dataclass(frozen=True, eq=False)
class GHom:
    """A map from a finite group into a G-algebra level, given by its values
    on the group elements.  Nothing is assumed: multiplicativity and
    equivariance defects are measured, not taken on faith."""

    source: FiniteGroup
    values: np.ndarray          # (|H|, n, n)
    level: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.ndim != 3 or v.shape[0] != self.source.order or v.shape[1] != v.shape[2]:
            raise ValueError(f"values shape {v.shape} does not match group order "
                             f"{self.source.order}")

    def mult_defect(self) -> float:
        return float(np.max(mult_defect_norms(self.values, self.source.mult)))


def mult_defect_norms(values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """The (|G|, |G|) array of ||v(gh) - v(g) v(h)||, with ``mult[g, h]``
    the index of gh.  Each g takes one (|G|, n, n) slab and one batched
    norm, so the full (|G|, |G|, n, n) product array is never built."""
    v = np.asarray(values)
    return np.stack([operator_norm(v[mult[g]] - v[g] @ v)
                     for g in range(len(mult))])


def max_with_pair(norms: np.ndarray):
    """The largest entry of a (|G|, |G|) array and its pair (g, h); ties go
    to the first pair in row-major order."""
    i = int(np.argmax(norms))
    g, h = divmod(i, norms.shape[1])
    return float(norms[g, h]), (g, h)
