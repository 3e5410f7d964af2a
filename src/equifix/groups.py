"""Finite groups as dense multiplication tables, with Haar averaging of
matrix-valued functions and exact circle averaging for integer-weight
diagonal circle actions.

Elements of a finite group are indices ``0 .. order-1``; the identity is
always index 0.  Haar measure is the uniform average.  Circle integrals are
restricted to integrands that are certified trigonometric polynomials, so
an equally spaced quadrature rule is exact rather than approximate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .matfun import Blocks

DEFAULT_ORDER_CAP = 720


class GroupConstructionError(ValueError):
    """Raised when requested group data is malformed or over the size cap."""


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group stored as a dense multiplication table.

    Attributes
    ----------
    order : int
        Number of elements.
    mult : (order, order) int array
        ``mult[g, h]`` is the index of the product g*h.
    inv : (order,) int array
        ``inv[g]`` is the index of the inverse of g.
    identity : int
        Index of the identity element (always 0 for built-in constructors).
    labels : tuple of str
        Optional element names, used only for reporting.
    name : str
        Short description, e.g. ``"cyclic(4)"``.
    """

    order: int
    mult: np.ndarray
    inv: np.ndarray
    identity: int = 0
    labels: tuple = ()
    name: str = "group"

    def __post_init__(self):
        m = np.asarray(self.mult, dtype=np.intp)
        object.__setattr__(self, "mult", m)
        object.__setattr__(self, "inv", np.asarray(self.inv, dtype=np.intp))
        if m.shape != (self.order, self.order):
            raise GroupConstructionError(
                f"mult table has shape {m.shape}, expected {(self.order, self.order)}"
            )
        e = self.identity
        if not (np.all(m[e, :] == np.arange(self.order)) and np.all(m[:, e] == np.arange(self.order))):
            raise GroupConstructionError("identity is not a two-sided unit")
        rng_ok = (m >= 0).all() and (m < self.order).all()
        if not rng_ok:
            raise GroupConstructionError("mult table entries out of range")
        # Latin-square property: every row and column is a permutation.
        for g in range(self.order):
            if len(set(m[g, :])) != self.order or len(set(m[:, g])) != self.order:
                raise GroupConstructionError(f"row/column {g} of mult is not a permutation")
        if not np.all(m[np.arange(self.order), self.inv] == e):
            raise GroupConstructionError("inv is not a right inverse")
        if not np.all(m[self.inv, np.arange(self.order)] == e):
            raise GroupConstructionError("inv is not a left inverse")
        self._check_associativity()

    def _check_associativity(self):
        # Exhaustive up to order 64 (<=262144 triples); deterministic sample above.
        m = self.mult
        n = self.order
        if n <= 64:
            g, h, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
            bad = m[m[g, h], k] != m[g, m[h, k]]
            if bad.any():
                i = np.argwhere(bad)[0]
                raise GroupConstructionError(f"mult not associative at triple {tuple(i)}")
        else:
            rng = np.random.default_rng(0)
            idx = rng.integers(0, n, size=(5000, 3))
            g, h, k = idx[:, 0], idx[:, 1], idx[:, 2]
            if np.any(m[m[g, h], k] != m[g, m[h, k]]):
                raise GroupConstructionError("mult not associative (sampled triple)")

    def mul(self, g: int, h: int) -> int:
        return int(self.mult[g, h])

    def inverse(self, g: int) -> int:
        return int(self.inv[g])

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = self.mul(x, g)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return bool(np.all(self.mult == self.mult.T))

    def is_cyclic_standard(self) -> bool:
        """True iff element i equals generator**i, i.e. mult[i,j] = (i+j) mod order."""
        i, j = np.meshgrid(np.arange(self.order), np.arange(self.order), indexing="ij")
        return bool(np.all(self.mult == (i + j) % self.order))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def _group_from_elements(elems, compose, invert, name, labels=None):
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    mult = np.empty((n, n), dtype=np.intp)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            mult[i, j] = index[compose(a, b)]
    inv = np.array([index[invert(a)] for a in elems], dtype=np.intp)
    return FiniteGroup(order=n, mult=mult, inv=inv, identity=0,
                       labels=tuple(labels) if labels else tuple(map(str, elems)),
                       name=name)


def cyclic_group(d: int) -> FiniteGroup:
    if d < 1:
        raise GroupConstructionError(f"cyclic order must be >= 1, got {d}")
    i, j = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    mult = (i + j) % d
    inv = (-np.arange(d)) % d
    return FiniteGroup(order=d, mult=mult, inv=inv,
                       labels=tuple(str(k) for k in range(d)), name=f"cyclic({d})")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element r^a f^b is encoded as a + n*b."""
    if n < 1:
        raise GroupConstructionError(f"dihedral parameter must be >= 1, got {n}")
    elems = [(a, b) for b in (0, 1) for a in range(n)]

    def compose(x, y):
        a1, b1 = x
        a2, b2 = y
        a = (a1 + (a2 if b1 == 0 else -a2)) % n
        return (a, (b1 + b2) % 2)

    def invert(x):
        a, b = x
        return ((-a) % n, 0) if b == 0 else (a, 1)

    labels = [f"r{a}" if b == 0 else f"r{a}f" for a, b in elems]
    return _group_from_elements(elems, compose, invert, f"dihedral({n})", labels)


def symmetric_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 6:
        raise GroupConstructionError(f"symmetric group supported for n <= 6, got {n}")
    elems = sorted(itertools.permutations(range(n)))
    # identity permutation sorts first, so index 0 is the unit.

    def compose(p, q):
        return tuple(p[q[i]] for i in range(n))

    def invert(p):
        out = [0] * n
        for i, pi in enumerate(p):
            out[pi] = i
        return tuple(out)

    return _group_from_elements(elems, compose, invert, f"symmetric({n})")


def product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    a = np.arange(n)
    x1, x2 = a // n2, a % n2
    mult = (g1.mult[np.ix_(x1, x1)] * n2 + g2.mult[np.ix_(x2, x2)])
    inv = g1.inv[x1] * n2 + g2.inv[x2]
    labels = tuple(f"({i},{j})" for i in range(n1) for j in range(n2))
    return FiniteGroup(order=n, mult=mult, inv=inv, labels=labels,
                       name=f"product({g1.name},{g2.name})")


def make_group(kind: str, params, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a finite group by kind: cyclic, dihedral, symmetric or product.

    ``params`` is an int for cyclic/dihedral/symmetric and a pair of
    FiniteGroups (or (kind, params) specs) for product.  Rejects any request
    whose resulting order exceeds ``order_cap``.
    """
    if kind == "cyclic":
        d = int(params)
        if d > order_cap:
            raise GroupConstructionError(f"order {d} exceeds cap {order_cap}")
        return cyclic_group(d)
    if kind == "dihedral":
        n = int(params)
        if 2 * n > order_cap:
            raise GroupConstructionError(f"order {2 * n} exceeds cap {order_cap}")
        return dihedral_group(n)
    if kind == "symmetric":
        n = int(params)
        order = math.factorial(n) if n <= 6 else order_cap + 1
        if order > order_cap:
            raise GroupConstructionError(f"symmetric({n}) exceeds cap {order_cap}")
        return symmetric_group(n)
    if kind == "product":
        a, b = params
        if not isinstance(a, FiniteGroup):
            a = make_group(a[0], a[1], order_cap)
        if not isinstance(b, FiniteGroup):
            b = make_group(b[0], b[1], order_cap)
        if a.order * b.order > order_cap:
            raise GroupConstructionError(
                f"order {a.order * b.order} exceeds cap {order_cap}")
        return product_group(a, b)
    raise GroupConstructionError(f"unknown group kind {kind!r}")


def haar_average(group: FiniteGroup, f: Callable[[int], np.ndarray]) -> np.ndarray:
    """Average f over the group: (1/|G|) sum_g f(g), summed one term at a
    time in group order.  Exact, no quadrature.  f may return arrays or
    Blocks."""
    def term(g):
        v = f(g)
        return v if isinstance(v, Blocks) else np.asarray(v, dtype=complex)

    total = term(0).copy()
    for g in range(1, group.order):
        v = term(g)
        if v.shape != total.shape:
            raise ValueError(f"f({g}) has shape {v.shape}, expected {total.shape}")
        total += v
    return total / group.order


@dataclass(frozen=True)
class CircleWeights:
    """Integer weights (k_1, ..., k_n) of the diagonal circle action
    zeta -> diag(zeta**k_j) on n-by-n matrices."""

    weights: tuple

    def __post_init__(self):
        w = tuple(int(k) for k in self.weights)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def degree_bound(self, monomial: int = 0) -> int:
        """Trig-polynomial degree bound D = max|k_i - k_j| + |m| of the
        structured integrand zeta^m U(zeta) v U(zeta)^*."""
        w = self.weights
        spread = max(w) - min(w) if w else 0
        return spread + abs(int(monomial))

    def default_nodes(self, monomial: int = 0) -> int:
        # 2D+3 keeps an odd safety margin above the exactness bound 2D+1.
        return 2 * self.degree_bound(monomial) + 3

    def unitary_at(self, zeta: complex) -> np.ndarray:
        return np.diag([zeta ** k for k in self.weights]).astype(complex)


def circle_average(weights: CircleWeights, v: np.ndarray, monomial: int = 0,
                   nodes: Optional[int] = None) -> np.ndarray:
    """Exact circle average of the structured integrand
    f(zeta) = zeta^m * U(zeta) v U(zeta)^*, with U(zeta) = diag(zeta^{k_j}).

    Every entry of f is a trigonometric monomial of degree k_i - k_j + m, so
    an equally spaced N-node rule with N > 2D (D the degree bound) computes
    the integral exactly.  Only this structured form is accepted: a generic
    callable cannot be certified, so it is rejected.

    The result a satisfies the covariance gamma_eta(a) = eta^{-m} a enforced
    by the integral.
    """
    if callable(v):
        raise TypeError("circle_average requires the structured (weights, v, m) "
                        "form; arbitrary callables cannot be certified exact")
    v = np.asarray(v, dtype=complex)
    n = weights.dim
    if v.shape != (n, n):
        raise ValueError(f"matrix shape {v.shape} does not match {n} weights")
    degree = weights.degree_bound(monomial)
    if nodes is None:
        nodes = weights.default_nodes(monomial)
    nodes = int(nodes)
    if nodes <= 2 * degree:
        raise ValueError(
            f"{nodes} nodes cannot be certified exact for degree {degree}; "
            f"need more than {2 * degree}")
    acc = np.zeros_like(v)
    for j in range(nodes):
        zeta = np.exp(2j * np.pi * j / nodes)
        u = weights.unitary_at(zeta)
        acc += (zeta ** monomial) * (u @ v @ u.conj().T)
    return acc / nodes
