import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equifix import galgebra, groups
from equifix.galgebra import group_mean
from equifix.groups import (ORDER_CAP, FiniteGroup, GroupConstructionError,
                            cyclic_group, make_group, symmetric_group)
from equifix.matfun import Blocks

GROUP_SPECS = [
    ("cyclic", 1), ("cyclic", 4), ("cyclic", 6),
    ("dihedral", 3), ("dihedral", 4),
    ("symmetric", 3), ("symmetric", 4),
    ("product", (("cyclic", 2), ("cyclic", 3))),
]


@pytest.mark.parametrize("kind,params", GROUP_SPECS)
def test_group_axioms_exhaustive(kind, params):
    g = make_group(kind, params)
    n = g.order
    m = g.mult
    # associativity over all triples
    a, b, c = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    assert np.all(m[m[a, b], c] == m[a, m[b, c]])
    # two-sided identity and inverses
    assert np.all(m[g.identity, :] == np.arange(n))
    assert np.all(m[:, g.identity] == np.arange(n))
    assert np.all(m[np.arange(n), g.inv] == g.identity)
    # latin square
    for i in range(n):
        assert sorted(m[i, :]) == list(range(n))
        assert sorted(m[:, i]) == list(range(n))


def test_cyclic_trivial():
    g = make_group("cyclic", 1)
    assert g.order == 1
    assert g.mult[0, 0] == 0


def test_cyclic_four_table():
    g = make_group("cyclic", 4)
    assert g.order == 4
    assert g.mult[1, 3] == 0
    assert g.mult[2, 3] == 1


def test_symmetric_three_element_orders():
    # Independent oracle: compose the permutations directly.
    perms = sorted(itertools.permutations(range(3)))
    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))
    orders = []
    for p in perms:
        k, x = 1, p
        while x != (0, 1, 2):
            x = compose(x, p)
            k += 1
        orders.append(k)
    g = make_group("symmetric", 3)
    assert g.order == 6
    assert sorted(g.element_order(x) for x in range(g.order)) == sorted(orders)
    assert sorted(orders).count(3) == 2


def test_order_cap():
    with pytest.raises(GroupConstructionError):
        make_group("cyclic", 1000)
    with pytest.raises(GroupConstructionError):
        make_group("symmetric", 7)
    with pytest.raises(GroupConstructionError):
        make_group("product", (("symmetric", 6), ("cyclic", 2)))


@pytest.mark.parametrize("kind,params,label", [
    ("cyclic", 721, "cyclic(721)"), ("dihedral", 361, "dihedral(361)"),
    ("symmetric", 7, "symmetric(7)"),
    # The factorial is cut once past the cap, so a huge count costs nothing.
    ("symmetric", 10 ** 18, f"symmetric({10 ** 18})"),
    ("product", (("cyclic", 30), ("dihedral", 13)),
     "product(cyclic(30),dihedral(13))")])
def test_order_cap_names_the_group_it_refuses(kind, params, label):
    with pytest.raises(GroupConstructionError,
                       match=re.escape(f"{label} exceeds the order cap {ORDER_CAP}")):
        make_group(kind, params)


@pytest.mark.parametrize("cap,largest", [(1, 1), (23, 3), (24, 4), (120, 5),
                                         (ORDER_CAP, 6)])
def test_symmetric_group_limit_follows_the_order_cap(monkeypatch, cap, largest):
    monkeypatch.setattr(groups, "ORDER_CAP", cap)
    assert symmetric_group(largest).order == math.factorial(largest)
    for n in (0, largest + 1):
        with pytest.raises(GroupConstructionError, match=re.escape(
                f"symmetric group supported for n <= {largest}, got {n}")):
            symmetric_group(n)


@pytest.mark.parametrize("kind,params", [
    ("cyclic", 720), ("dihedral", 360), ("symmetric", 6),
    ("product", (("symmetric", 3), ("cyclic", 120)))])
def test_order_cap_admits_the_cap_itself(kind, params):
    assert make_group(kind, params).order == ORDER_CAP


@pytest.mark.parametrize("params", [(("cyclic", 1), ("cyclic", 2)),
                                    (("dihedral", 3), ("symmetric", 1)),
                                    (("product", (("cyclic", 2), ("cyclic", 2))),
                                     ("cyclic", 1))])
def test_product_refuses_a_factor_of_order_one(params):
    # Each factor then at least doubles the order, so ORDER_CAP < 2^10
    # bounds a product's nesting at 9 factors.
    with pytest.raises(GroupConstructionError, match="has a factor of order 1"):
        make_group("product", params)


def test_bad_table_rejected():
    mult = np.zeros((2, 2), dtype=int)   # not a latin square
    with pytest.raises(GroupConstructionError):
        FiniteGroup(mult)
    for mult in (np.zeros((2, 3), dtype=int), np.arange(3), np.int64(0),
                 np.zeros((0, 0), dtype=int)):
        with pytest.raises(GroupConstructionError, match="square table"):
            FiniteGroup(mult)


@pytest.mark.parametrize("kind,params", [
    ("cyclic", d) for d in (1, 2, 5, 12)] + [("dihedral", n) for n in (1, 2, 3, 7)] + [
    ("symmetric", n) for n in (1, 2, 3, 4, 5)] + [
    ("product", (a, b)) for a, b in [(("cyclic", 2), ("cyclic", 3)),
                                     (("dihedral", 3), ("cyclic", 4)),
                                     (("symmetric", 3), ("dihedral", 2))]])
def test_inverses_are_the_ones_the_constructors_computed(kind, params):
    # The inverses each constructor used to pass next to its table.
    g = make_group(kind, params)
    if kind == "cyclic":
        want = -np.arange(params) % params
    elif kind == "dihedral":
        x = np.arange(2 * params)
        a, b = x % params, x // params
        want = np.where(b, x, -a % params)
    elif kind == "symmetric":
        perms = np.array(list(itertools.permutations(range(params))))
        weights = params ** np.arange(params - 1, -1, -1)
        want = np.searchsorted(perms @ weights, np.argsort(perms, axis=1) @ weights)
    else:
        g1, g2 = (make_group(*spec) for spec in params)
        x = np.arange(g.order)
        want = g1.inv[x // g2.order] * g2.order + g2.inv[x % g2.order]
    assert g.inv.dtype == np.intp
    assert np.array_equal(g.inv, want)


def test_haar_constant():
    g = make_group("dihedral", 3)
    c = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    avg = group_mean(lambda x: np.broadcast_to(c, (len(x), 2, 2)), c, g.order)
    assert np.allclose(avg, c, atol=1e-15)


def test_haar_z2_projection():
    g = cyclic_group(2)
    vals = np.array([np.eye(2), np.diag([1.0, -1.0])], dtype=complex)
    avg = group_mean(lambda x: vals[x], vals[0], g.order)
    assert np.allclose(avg, np.diag([1.0, 0.0]), atol=1e-15)


def test_haar_z3_root_of_unity():
    g = cyclic_group(3)
    omega = np.exp(2j * np.pi / 3)
    avg = group_mean(lambda x: (omega ** x)[:, None, None], np.eye(1), g.order)
    assert abs(avg[0, 0]) < 1e-15


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_haar_linear_and_contractive(seed):
    rng = np.random.default_rng(seed)
    g = cyclic_group(int(rng.integers(1, 6)))
    mats = rng.standard_normal((g.order, 3, 3)) + 1j * rng.standard_normal((g.order, 3, 3))
    a = group_mean(lambda x: mats[x], mats[0], g.order)
    b = group_mean(lambda x: 2.5 * mats[x], mats[0], g.order)
    assert np.allclose(b, 2.5 * a, atol=1e-12)
    assert np.linalg.norm(a, 2) <= max(np.linalg.norm(mats[x], 2)
                                       for x in range(g.order)) + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 40), st.sampled_from([1, 2, 3]),
       st.sampled_from([1, 7, 200, None]), st.booleans())
def test_haar_is_a_running_sum_whatever_the_chunks(seed, order, dim, entries, blocks):
    # One term at a time in the order of g, also for 1x1 terms, where numpy's
    # sum over the leading axis is pairwise instead.
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((order, dim, dim)) + \
        1j * rng.standard_normal((order, dim, dim))
    want = mats[0].copy()
    for m in mats[1:]:
        want += m
    want /= order
    family = Blocks((mats[0, None],)) if blocks else mats[0]
    slab = galgebra.SLAB_ENTRIES if entries is None else entries
    with mock.patch.object(galgebra, "SLAB_ENTRIES", slab):
        got = group_mean(lambda x: Blocks((mats[x, None],)) if blocks else mats[x],
                         family, order)
    assert np.array_equal(got.parts[0][0] if blocks else got, want)

