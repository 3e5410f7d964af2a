"""Finite-dimensional unital G-algebras and quotient towers, stored block by
block.

A G-algebra here is a block direct sum of matrix algebras carrying a group
action given per group element by a block permutation plus per-block
unitaries; every automorphism of a finite-dimensional C*-algebra has this
form.  An element is stored as :class:`~equifix.matfun.Blocks`: the blocks
of one size b_s share one stack ``(..., K_s, b_s, b_s)``.  The action of g
gathers each stack by the block permutation and conjugates every block by
its unitary, one batched product per block size; the norm of an element is
its largest block norm.  A one-block algebra (``matrix_algebra``) also
takes a dense matrix or stack ``(..., n, n)`` as its only block.

A Tower adds an increasing chain of invariant ideals (unions of blocks).
The quotient at level n is the G-algebra on the blocks outside J_n, and
the quotient maps drop blocks, which makes their compatibility exact.
``mult_defect_norms`` measures ||v(gh) - v(g) v(h)|| for every pair with
one stacked product and one batched norm per g.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .groups import FiniteGroup
from .matfun import Blocks, adjoint, operator_norm, stack


class BlockMismatchError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class GAlgebra:
    """Block direct sum of matrix algebras with a finite-group action.

    ``perms[g][j]`` is the target position of block j under the action of g;
    ``unitaries[g][p]`` is the unitary applied at target position p.  The
    automorphism of g moves block j to position p and conjugates it by the
    unitary there.  Stacks hold the blocks of one size in position order,
    sizes ascending.  ``check=False`` skips the composition self-check, for
    restrictions of a checked action.
    """

    blocks: tuple
    group: FiniteGroup
    perms: np.ndarray          # (|G|, K) int
    unitaries: tuple           # per g: tuple of per-target-block unitaries
    action_tol: float = 1e-12
    check: InitVar[bool] = True

    def __post_init__(self, check):
        blocks = tuple(int(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        perms = np.asarray(self.perms, dtype=np.intp)
        object.__setattr__(self, "perms", perms)
        K, order = len(blocks), self.group.order
        if perms.shape != (order, K):
            raise ValueError(f"perms shape {perms.shape}, expected {(order, K)}")
        classes = tuple(tuple(j for j in range(K) if blocks[j] == b)
                        for b in sorted(set(blocks)))
        local = {j: k for cls in classes for k, j in enumerate(cls)}
        for g in range(order):
            if sorted(perms[g].tolist()) != list(range(K)):
                raise ValueError(f"perms[{g}] is not a permutation of blocks")
            for j in range(K):
                p = int(perms[g, j])
                if blocks[p] != blocks[j]:
                    raise BlockMismatchError(
                        f"action of g={g} maps block {j} (dim {blocks[j]}) to "
                        f"position {p} (dim {blocks[p]})")
                if np.shape(self.unitaries[g][p]) != (blocks[p], blocks[p]):
                    raise ValueError(f"unitaries[{g}][{p}] has shape "
                                     f"{np.shape(self.unitaries[g][p])}")
        inv = np.argsort(perms, axis=1)     # inv[g, p]: the block g moves to p
        us = tuple(np.array([[self.unitaries[g][p] for p in cls] for g in range(order)],
                            dtype=complex) for cls in classes)
        object.__setattr__(self, "_classes", classes)
        object.__setattr__(self, "_src", tuple(
            np.array([[local[inv[g, p]] for p in cls] for g in range(order)])
            for cls in classes))
        object.__setattr__(self, "_u", us)
        object.__setattr__(self, "_uh", tuple(adjoint(u) for u in us))
        object.__setattr__(self, "_shapes", tuple(u.shape[1:] for u in us))
        # The stored data must compose: Ad(W_g) Ad(W_h) = Ad(W_gh).  Checked
        # on a random element; skipped for very large groups.
        if check and order <= 64:
            defect = self.action_defect(samples=1)
            if defect > self.action_tol:
                raise ValueError(
                    f"action data is not a homomorphism (defect {defect:.3e})")

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    def as_blocks(self, a) -> Blocks:
        """a as Blocks of this algebra; a dense ``(..., n, n)`` array is the
        only block of a one-block algebra."""
        if isinstance(a, Blocks):
            shapes = tuple(p.shape[-3:] for p in a.parts)
            if shapes != self._shapes:
                raise BlockMismatchError(f"element blocks {shapes}, algebra "
                                         f"blocks {self._shapes}")
            return a
        a = np.asarray(a, dtype=complex)
        if len(self.blocks) != 1 or a.ndim < 2 or a.shape[-2:] != (self.dim,) * 2:
            raise BlockMismatchError(f"dense element of shape {a.shape} for an "
                                     f"algebra with blocks {self.blocks}")
        return Blocks((a[..., None, :, :],))

    def act(self, g: int, a):
        """Apply the automorphism of g to one element or a stack: gather the
        blocks by the permutation, then conjugate each by its unitary.  A
        dense argument gives a dense result."""
        x = self.as_blocks(a)
        out = Blocks(u[g] @ p[..., s[g], :, :] @ uh[g] for p, s, u, uh
                     in zip(x.parts, self._src, self._u, self._uh))
        return out if isinstance(a, Blocks) else out.parts[0][..., 0, :, :]

    def action_defect(self, rng_seed: int = 0, samples: int = 2) -> float:
        """Max over (g, h) of ||act(h, act(g, a)) - act(hg, a)|| on random
        elements a, plus the identity-acts-trivially defect.  Each h acts
        once on the stack of images of a and takes one batched norm over g.
        Should be at rounding level for a genuine action."""
        rng = np.random.default_rng(rng_seed)
        G = self.group
        worst = 0.0
        for _ in range(samples):
            a = Blocks(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                       for shape in self._shapes)
            images = stack([self.act(g, a) for g in range(G.order)])
            worst = max(worst, operator_norm(images[G.identity] - a))
            for h in range(G.order):
                worst = max(worst, float(np.max(operator_norm(
                    self.act(h, images) - images[G.mult[h]]))))
        return worst

    def restrict(self, keep) -> "GAlgebra":
        """The G-algebra on the blocks ``keep`` (a sorted, invariant list of
        block positions), with the restricted action."""
        pos = {j: i for i, j in enumerate(keep)}
        perms = [[pos[int(self.perms[g, j])] for j in keep]
                 for g in range(self.group.order)]
        unitaries = tuple(tuple(self.unitaries[g][j] for j in keep)
                          for g in range(self.group.order))
        return GAlgebra(tuple(self.blocks[j] for j in keep), self.group,
                        np.reshape(perms, (self.group.order, len(keep))),
                        unitaries, self.action_tol, check=False)

    def take(self, a: Blocks, keep) -> Blocks:
        """A fresh copy of the blocks at the sorted positions ``keep`` of a
        (an element or a stack), as an element of ``restrict(keep)``."""
        keep = set(keep)
        parts = []
        for p, cls in zip(a.parts, self._classes):
            idx = [k for k, j in enumerate(cls) if j in keep]
            if idx:
                parts.append(p[..., idx, :, :])
        return Blocks(parts)


def matrix_algebra(n: int, group: FiniteGroup, action_unitaries=None,
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
    J_0 <= J_1 <= ... <= J_N.  The quotient at level n, ``level(n)``, is
    the G-algebra on the blocks outside J_n; the top quotient is by J_N."""

    algebra: GAlgebra
    ideals: tuple   # tuple of frozensets of block indices
    _levels: dict = field(default_factory=dict, init=False, repr=False)

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

    def _live(self, n: int) -> list:
        return [j for j in range(len(self.algebra.blocks)) if j not in self.ideals[n]]

    def level(self, n: int) -> GAlgebra:
        """The quotient G-algebra at level n (built once)."""
        if n not in self._levels:
            self._levels[n] = self.algebra.restrict(self._live(n))
        return self._levels[n]

    def project(self, n: int, m: int, a: Blocks) -> Blocks:
        """Quotient map pi_{n,m} from level m to level n (m <= n): drops the
        blocks of J_n.  Compositions pi_{n,m} o pi_{m,l} = pi_{n,l} hold
        exactly because dropping is nested."""
        if not 0 <= m <= n <= self.top:
            raise ValueError(f"levels must satisfy 0 <= m <= n <= {self.top}, "
                             f"got (n={n}, m={m})")
        keep = [i for i, j in enumerate(self._live(m)) if j not in self.ideals[n]]
        return self.level(m).take(self.level(m).as_blocks(a), keep)

    def project_to_top(self, m: int, a: Blocks) -> Blocks:
        return self.project(self.top, m, a)


def group_stack(values, order: int):
    """values as a stack with one element per group element: Blocks as
    they are, anything else as a complex (|G|, n, n) array."""
    if isinstance(values, Blocks):
        lead = values.lead
    else:
        values = np.asarray(values, dtype=complex)
        square = values.ndim == 3 and values.shape[1] == values.shape[2]
        lead = values.shape[:1] if square else None
    if lead != (order,):
        raise ValueError(f"values shape {values.shape} does not match group "
                         f"order {order}")
    return values


@dataclass(frozen=True, eq=False)
class GHom:
    """A map from a finite group into a G-algebra level, given by its values
    on the group elements.  Nothing is assumed: multiplicativity and
    equivariance defects are measured, not taken on faith."""

    source: FiniteGroup
    values: object              # (|H|, n, n) array or Blocks
    level: int

    def __post_init__(self):
        object.__setattr__(self, "values",
                           group_stack(self.values, self.source.order))

    def mult_defect(self) -> float:
        return float(np.max(mult_defect_norms(self.values, self.source.mult)))


def mult_defect_norms(values, mult: np.ndarray) -> np.ndarray:
    """The (|G|, |G|) array of ||v(gh) - v(g) v(h)||, with ``mult[g, h]``
    the index of gh.  Each g takes one (|G|, ...) slab and one batched
    norm, so the full (|G|, |G|, ...) product array is never built."""
    v = values if isinstance(values, Blocks) else np.asarray(values)
    return np.stack([operator_norm(v[mult[g]] - v[g] @ v)
                     for g in range(len(mult))])


def max_with_pair(norms: np.ndarray):
    """The largest entry of a (|G|, |G|) array and its pair (g, h); ties go
    to the first pair in row-major order."""
    i = int(np.argmax(norms))
    g, h = divmod(i, norms.shape[1])
    return float(norms[g, h]), (g, h)
