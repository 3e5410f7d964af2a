"""Finite-dimensional unital G-algebras and quotient towers, stored block by
block.

A G-algebra here is a block direct sum of matrix algebras carrying a group
action given per group element by a block permutation plus per-block
unitaries; every automorphism of a finite-dimensional C*-algebra has this
form.  An element is stored as :class:`~equifix.matfun.Blocks`: the blocks
of one size b_s share one stack ``(..., K_s, b_s, b_s)``.  The action of g
gathers each stack by the block permutation and conjugates every block by
its unitary, one batched product per block size, for one g or for an
array of g broadcast against the stack; a size whose unitaries are all
monomial (one nonzero per row) takes one gather of the moved entries
times their weights instead.  Each size stores only the maps it needs: a
size whose blocks no g moves takes no gather, only the products, and a
monomial size whose entries no g moves takes only its weights (the
lift's diagonal phases).  An element's norm is its largest block norm.
A one-block algebra takes a dense ``(..., n, n)`` too.

A Tower adds an increasing chain of invariant ideals (unions of blocks).
The quotient at level n is the G-algebra on the blocks outside J_n, and
the quotient maps drop blocks, which makes their compatibility exact.
``max_pair_defect`` measures the largest ||v(gh) - v(g) v(h)|| over all
pairs, and its twisted (cocycle) form, or gates it at a floor, with one
stacked product and one screened norm over the (|G|, |G|, ...) stack of
pairs, as do the action's self-check and the equivariance and partition
defects.  Such stacks take one stacked call per chunk of g
(``pair_chunks``) of about SLAB_ENTRIES entries, so a large group at a
large dimension never holds all pairs at once; every group the benchmarks
run fits one chunk.  Every average over a group is ``group_mean``, a
running sum of such chunks' term stacks.  A map from a group into a level
is held as an ``ApproxRep``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .groups import FiniteGroup
from .matfun import Blocks, adjoint, largest_norm, read_only

# The most matrix entries one stacked call over a family of pairs holds.
SLAB_ENTRIES = 2 ** 16


class BlockMismatchError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class GAlgebra:
    """Block direct sum of matrix algebras with a finite-group action.

    ``perms[g][j]`` is the target position of block j under the action of g;
    ``unitaries[g][p]`` is the unitary applied at target position p.  The
    automorphism of g moves block j to position p and conjugates it by the
    unitary there.  Stacks hold the blocks of one size in position order,
    sizes ascending.  Construction records, per block size, whether every
    unitary of that size has one nonzero per row, and then the gather
    ``act`` takes for it, and whether any g moves a block of that size
    (or, for such a size, an entry within its blocks); the input decides,
    no option does.
    ``check=False`` skips the composition self-check, for restrictions of
    a checked action.
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
        # A class whose unitaries have one nonzero per row, u[i, c_i], acts
        # by a gather: (u x u*)[i, j] = u[i, c_i] x[c_i, c_j] conj(u[j, c_j]).
        # Its _idx holds, per g, the offsets of those entries in the
        # flattened (K_s, b, b) stack, and its _w the weights, None when all
        # are 1; a dense class has None for both.  _gather is whether act
        # gathers: a dense class's blocks or a monomial class's entries move
        # under some g, or the class's every map is the identity, whose
        # gather is its copy.
        idx, w, gather = [None] * len(us), [None] * len(us), []
        for k, (u, s) in enumerate(zip(us, self._src)):
            moves = bool((s != np.arange(s.shape[1])).any())
            if u.size and np.all(np.count_nonzero(u, axis=-1) == 1):
                c, b = np.argmax(u != 0, axis=-1), u.shape[-1]
                d = np.take_along_axis(u, c[..., None], -1)[..., 0]
                idx[k] = (s[..., None, None] * b + c[..., :, None]) * b + c[..., None, :]
                weights = d[..., :, None] * d.conj()[..., None, :]
                w[k] = None if np.all(weights == 1) else weights
                moves = moves or bool((c != np.arange(b)).any()) or w[k] is None
            gather.append(moves)
        object.__setattr__(self, "_idx", tuple(idx))
        object.__setattr__(self, "_w", tuple(w))
        object.__setattr__(self, "_gather", tuple(gather))
        object.__setattr__(self, "_shapes", tuple(u.shape[1:] for u in us))
        # The stored data must compose: Ad(W_g) Ad(W_h) = Ad(W_gh).  Checked
        # on a random element; skipped for very large groups.
        if check and order <= 64:
            defect = self.action_defect(samples=1, floor=self.action_tol)
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

    def act(self, g, a):
        """Apply the automorphism of g to one element or a stack, one block
        size at a time.  Where every unitary of a size has one nonzero per
        row (a permutation with phases), that size is one gather of the
        moved entries times their weights, or only the product by the
        weights when no entry moves; otherwise the blocks are gathered by
        the permutation, unless none moves, and each is conjugated by its
        unitary, one batched product.  A size on which every g acts as the
        identity is gathered, which copies it: every result is a fresh
        array.  An index array g broadcasts against the leading axes of a,
        as numpy index arrays do: g of shape (k,) with a (k, ...) stack
        pairs them, act(g, a)[i] = act(g[i], a[i]), and g[:, None] with an
        (m, ...) stack gives the (k, m, ...) stack of act(g[i], a[j]).  A
        dense argument gives a dense result."""
        x = self.as_blocks(a)
        ix, parts = None, []
        for p, s, u, uh, idx, w, gather in zip(x.parts, self._src, self._u, self._uh,
                                               self._idx, self._w, self._gather):
            if gather and ix is None:
                # Open grids over the leading axes of a, which with the
                # block index s[g] broadcast as g does against a.
                ix = np.indices(x.lead + (1,), sparse=True)[:-1]
            if idx is None:
                parts.append(u[g] @ (p[(*ix, s[g])] if gather else p) @ uh[g])
            elif not gather:
                # p first takes the axes g adds: numpy multiplies one-entry
                # operands with unequal axis counts by another loop, whose
                # rounding differs from the gather's.
                parts.append(p[(None,) * (np.ndim(g) - len(x.lead))] * w[g])
            else:
                flat = p.reshape(x.lead + (p.shape[-3] * p.shape[-2] * p.shape[-1],))
                moved = flat[(*(i[..., None, None] for i in ix), idx[g])]
                parts.append(moved if w is None else moved * w[g])
        out = Blocks(parts)
        return out if isinstance(a, Blocks) else out.parts[0][..., 0, :, :]

    def action_defect(self, samples: int, floor: float) -> float:
        """Max over (g, h) of ||act(h, act(g, a)) - act(hg, a)|| on random
        elements a (seed 0), plus the identity-acts-trivially defect, or
        ``floor`` if that is larger: a gate at tolerance ``floor`` takes no
        SVD for slices that are screened under it.  One stacked action and
        one screened norm per chunk of h, over the stack of images of a.
        Should be at rounding level for a genuine action."""
        rng = np.random.default_rng(0)
        G = self.group
        worst = floor
        for _ in range(samples):
            a = Blocks(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                       for shape in self._shapes)
            images = self.act(np.arange(G.order), a)
            worst = largest_norm(images[G.identity] - a, worst)[0]
            for c in pair_chunks(images, G.order):
                worst = largest_norm(self.act(np.arange(G.order)[c, None], images) -
                                     images[G.mult[c]], worst)[0]
        return worst

    def restrict(self, keep) -> "GAlgebra":
        """The G-algebra on the blocks ``keep`` (a sorted, invariant list of
        block positions), with the restricted action; read-only, like a
        cached algebra, when this algebra's ``perms`` are."""
        pos = {j: i for i, j in enumerate(keep)}
        perms = [[pos[int(self.perms[g, j])] for j in keep]
                 for g in range(self.group.order)]
        unitaries = tuple(tuple(self.unitaries[g][j] for j in keep)
                          for g in range(self.group.order))
        quotient = GAlgebra(tuple(self.blocks[j] for j in keep), self.group,
                            np.reshape(perms, (self.group.order, len(keep))),
                            unitaries, self.action_tol, check=False)
        return quotient if self.perms.flags.writeable else read_only(quotient)

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

    def split(self, a, keep):
        """The blocks of a (an element or a stack) outside the sorted
        positions ``keep``, as ``take`` gives them and dense when they are
        one block, and the map that puts a new such part in their place,
        leaving the blocks at ``keep`` unchanged (dense when a is)."""
        x = self.as_blocks(a)
        rest = [j for j in range(len(self.blocks)) if j not in keep]
        moving = self.take(x, rest)

        def attach(moved):
            parts = iter((moved[..., None, :, :],) if len(rest) == 1 else moved.parts)
            out = [p.copy() for p in x.parts]
            for p, cls in zip(out, self._classes):
                idx = [k for k, j in enumerate(cls) if j in rest]
                if idx:
                    p[..., idx, :, :] = next(parts)
            return Blocks(out) if isinstance(a, Blocks) else out[0][..., 0, :, :]
        return (moving.parts[0][..., 0, :, :] if len(rest) == 1 else moving), attach


def matrix_algebra(n: int, group: FiniteGroup, action_unitaries,
                   action_tol: float = 1e-12) -> GAlgebra:
    """Single-block M_n with the action g |-> Ad(u_g), ``action_unitaries``
    holding u_g in the order of the group elements."""
    perms = np.zeros((group.order, 1), dtype=np.intp)
    unitaries = tuple((np.asarray(u, dtype=complex),) for u in action_unitaries)
    return GAlgebra(blocks=(n,), group=group, perms=perms, unitaries=unitaries,
                    action_tol=action_tol)


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
        keep = self.kept(n, m)
        return self.level(m).take(self.level(m).as_blocks(a), keep)

    def kept(self, n: int, m: int) -> list:
        """The positions, among the blocks of level m, of the blocks that
        pi_{n,m} keeps (m <= n)."""
        if not 0 <= m <= n <= self.top:
            raise ValueError(f"levels must satisfy 0 <= m <= n <= {self.top}, "
                             f"got (n={n}, m={m})")
        return [i for i, j in enumerate(self._live(m)) if j not in self.ideals[n]]


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


def chunks(count: int, per_item: int) -> list:
    """Slices covering range(count), each of max(1, SLAB_ENTRIES //
    per_item) items: a stack with per_item entries per item stays near
    SLAB_ENTRIES entries per chunk."""
    step = max(1, SLAB_ENTRIES // max(1, per_item))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def pair_chunks(values, count: int) -> list:
    """Chunks of g in range(count) for stacks in which each g brings a term
    shaped like ``values``: the whole family, for the (g, k) stacks over a
    group-indexed family."""
    parts = values.parts if isinstance(values, Blocks) else (values,)
    return chunks(count, sum(p.size for p in parts))


def group_mean(f, family, count: int):
    """The mean over g in range(count) of the terms f(g): f takes the index
    array g of one chunk (``pair_chunks(family, count)``, each term shaped
    like ``family``) and returns the (k, ...) stack of its terms.  They are
    added one at a time in the order of g, so the bits do not depend on the
    chunking (numpy's sum over an axis may pair its terms instead)."""
    total = None
    for c in pair_chunks(family, count):
        terms = f(np.arange(count)[c])
        for i in range(c.stop - c.start):
            total = terms[i] if total is None else total + terms[i]
    return total / count


def _pair_stacks(values, mult: np.ndarray, act):
    """Per chunk c of g (``pair_chunks``), c and the (k, |G|, ...) stack of
    v(gh) - v(g) a_g(v(h)) over its pairs, as ``max_pair_defect`` takes them."""
    order = len(mult)
    for c in pair_chunks(values, order):
        twisted = values[None] if act is None else act(np.arange(order)[c, None], values)
        yield c, values[mult[c]] - values[c, None] @ twisted


def max_pair_defect(values, mult: np.ndarray, act=None, floor: float = -1.0):
    """The largest ||v(gh) - v(g) a_g(v(h))|| over pairs (g, h) and the
    first pair (row-major) attaining it, with ``mult[g, h]`` the index of
    gh and a_g = ``act(g, .)``, or the identity when act is None.  Each
    chunk of g takes one stacked product over its (g, h) pairs and one
    screened norm whose floor is the running maximum of earlier chunks, so
    ties go to the first pair.  A floor >= 0 makes it a gate: (floor,
    None) when no pair exceeds it, which on exact input the Frobenius pass
    decides, and otherwise the exact figure and pair, as at the default
    floor, which measures every family."""
    worst, pair = floor, None
    for c, stack in _pair_stacks(values, mult, act):
        worst, i = largest_norm(stack, worst)
        if i is not None:
            g, h = divmod(i, len(mult))
            pair = (c.start + g, h)
    return worst, pair
