"""Finite groups as dense multiplication tables, built with array
arithmetic.

Elements of a finite group are indices ``0 .. order-1``; the identity is
always index 0.  An average over a finite group (its Haar measure is the
uniform average) is ``galgebra.group_mean`` when its terms are built per
chunk of g, and ``.mean`` over the group axis of a family already stacked.
"""

from __future__ import annotations

import itertools
import math
import reprlib
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

# make_group rejects any group of a larger order.
ORDER_CAP = 720


class GroupConstructionError(ValueError):
    """Raised when requested group data is malformed or over the size cap."""


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group stored as a dense multiplication table.

    Attributes
    ----------
    mult : (order, order) int array
        ``mult[g, h]`` is the index of the product g*h.
    name : str
        Short description, e.g. ``"cyclic(4)"``.
    order : int
        Number of elements, the side of ``mult``.
    inv : (order,) int array
        ``inv[g]`` is the index of the inverse of g: the column of the
        identity in row g of ``mult``.
    identity : int
        Index of the identity element, always 0.
    """

    mult: np.ndarray
    name: str = "group"
    order: int = field(init=False)
    inv: np.ndarray = field(init=False)
    identity: ClassVar[int] = 0

    def __post_init__(self):
        m = np.asarray(self.mult, dtype=np.intp)
        object.__setattr__(self, "mult", m)
        if m.ndim != 2 or not 0 < m.shape[0] == m.shape[1]:
            raise GroupConstructionError(
                f"mult table has shape {m.shape}, expected a nonempty square table")
        object.__setattr__(self, "order", len(m))
        ids, e = np.arange(self.order), self.identity
        if not (np.all(m[e, :] == ids) and np.all(m[:, e] == ids)):
            raise GroupConstructionError("identity is not a two-sided unit")
        if not ((m >= 0).all() and (m < self.order).all()):
            raise GroupConstructionError("mult table entries out of range")
        # Latin-square property: every row and column is a permutation.
        bad = np.any(np.sort(m, 1) != ids, 1) | np.any(np.sort(m, 0).T != ids, 1)
        if bad.any():
            raise GroupConstructionError(
                f"row/column {np.argmax(bad)} of mult is not a permutation")
        # Each row holds the identity exactly once; in a group the right
        # inverse found there is also the left one.
        object.__setattr__(self, "inv", np.argmax(m == e, axis=1))
        self._check_associativity()

    def _check_associativity(self):
        # Exhaustive up to order 64 (<=262144 triples); deterministic sample above.
        m = self.mult
        n = self.order
        if n <= 64:
            bad = m[m] != m[:, m]          # (g, h, k): (gh)k against g(hk)
            if bad.any():
                i = np.argwhere(bad)[0]
                raise GroupConstructionError(f"mult not associative at triple {tuple(i)}")
        else:
            rng = np.random.default_rng(0)
            idx = rng.integers(0, n, size=(5000, 3))
            g, h, k = idx[:, 0], idx[:, 1], idx[:, 2]
            if np.any(m[m[g, h], k] != m[g, m[h, k]]):
                raise GroupConstructionError("mult not associative (sampled triple)")

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = self.mult[x, g]
            k += 1
        return k

    def is_abelian(self) -> bool:
        return bool(np.all(self.mult == self.mult.T))

    def is_cyclic_standard(self) -> bool:
        """True iff element i equals generator**i, i.e. mult[i,j] = (i+j) mod order."""
        ids = np.arange(self.order)
        return bool(np.all(self.mult == np.add.outer(ids, ids) % self.order))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def cyclic_group(d: int) -> FiniteGroup:
    if d < 1:
        raise GroupConstructionError(f"cyclic order must be >= 1, got {d}")
    ids = np.arange(d)
    return FiniteGroup(mult=np.add.outer(ids, ids) % d, name=f"cyclic({d})")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element r^a f^b is encoded as a + n*b."""
    if n < 1:
        raise GroupConstructionError(f"dihedral parameter must be >= 1, got {n}")
    x = np.arange(2 * n)
    a, b = x % n, x // n
    mult = (a[:, None] + np.where(b[:, None], -a, a)) % n + n * ((b[:, None] + b) % 2)
    return FiniteGroup(mult=mult, name=f"dihedral({n})")


def symmetric_group(n: int) -> FiniteGroup:
    """The permutations of range(n) in lexicographic order, so index 0 is
    the identity; p q is the permutation i -> p[q[i]], and a permutation's
    index is the rank of its base-n code among those of the elements.
    Refuses n under 1 or with n! over ORDER_CAP."""
    largest = next(k for k in itertools.count(1) if math.factorial(k + 1) > ORDER_CAP)
    if not 1 <= n <= largest:
        raise GroupConstructionError(
            f"symmetric group supported for n <= {largest}, got {n}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    weights = n ** np.arange(n - 1, -1, -1)
    codes = perms @ weights
    mult = np.searchsorted(codes, perms[:, perms] @ weights)
    return FiniteGroup(mult=mult, name=f"symmetric({n})")


def product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    a = np.arange(n)
    x1, x2 = a // n2, a % n2
    mult = (g1.mult[np.ix_(x1, x1)] * n2 + g2.mult[np.ix_(x2, x2)])
    return FiniteGroup(mult=mult, name=f"product({g1.name},{g2.name})")


def make_group(kind: str, params) -> FiniteGroup:
    """Build a finite group by kind: cyclic, dihedral, symmetric or product.

    ``params`` is an int for cyclic/dihedral/symmetric and a pair of
    (kind, params) specs for product.  Rejects a count that is not an
    integer (a bool is not one), a product factor of order 1, and any
    request whose resulting order exceeds ORDER_CAP, before the group is
    built: each factor at least doubles a product's order, so
    ORDER_CAP < 2^10 bounds every product at 9 factors.
    """
    builders = {"cyclic": cyclic_group, "dihedral": dihedral_group,
                "symmetric": symmetric_group}
    if kind == "product":
        a, b = (make_group(p[0], p[1]) for p in params)
        order, label = a.order * b.order, f"product({a.name},{b.name})"
        if min(a.order, b.order) == 1:
            raise GroupConstructionError(f"{label} has a factor of order 1")
    elif kind in builders:
        if isinstance(params, bool) or not isinstance(params, (int, np.integer)):
            raise GroupConstructionError(
                f"{kind} needs an integer count, got {reprlib.repr(params)}")
        n = int(params)
        order, label = 2 * n if kind == "dihedral" else n, f"{kind}({reprlib.repr(n)})"
        if kind == "symmetric":      # n!, its product cut once past the cap
            order = 1
            for k in range(2, n + 1):
                order *= k
                if order > ORDER_CAP:
                    break
    else:
        raise GroupConstructionError(f"unknown group kind {reprlib.repr(kind)}")
    if order > ORDER_CAP:
        raise GroupConstructionError(f"{label} exceeds the order cap {ORDER_CAP}")
    return product_group(a, b) if kind == "product" else builders[kind](n)
