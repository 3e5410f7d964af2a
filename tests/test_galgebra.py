import numpy as np
import pytest

from equifix.groups import cyclic_group, haar_average
from equifix.galgebra import (BlockMismatchError, GAlgebra, GHom, Tower,
                              commutant_expectation, invariant_lift,
                              matrix_algebra, trivial_action_algebra)
from equifix.matfun import operator_norm


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def rand_involution(rng, n):
    """Random self-inverse unitary (valid order-2 action data)."""
    v = rand_unitary(rng, n)
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return v @ np.diag(signs.astype(complex)) @ v.conj().T


def block_swap_algebra(u=None):
    """Z/2 swapping two M_2 blocks, conjugating by u at each target slot."""
    g = cyclic_group(2)
    if u is None:
        u = np.eye(2, dtype=complex)
    perms = np.array([[0, 1], [1, 0]])
    unitaries = ((np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
                 (u, u))
    return GAlgebra(blocks=(2, 2), group=g, perms=perms, unitaries=unitaries)


def test_identity_acts_trivially():
    rng = np.random.default_rng(0)
    alg = block_swap_algebra(rand_involution(rng, 2))
    a = alg.block_mask() * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert operator_norm(alg.act(0, a) - a) <= 1e-14


def test_trivial_action():
    alg = trivial_action_algebra((2, 3), cyclic_group(3))
    rng = np.random.default_rng(1)
    a = alg.block_mask() * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    for g in range(3):
        assert operator_norm(alg.act(g, a) - a) <= 1e-14


def test_block_swap_matches_hand_composition():
    rng = np.random.default_rng(2)
    u = rand_involution(rng, 2)
    alg = block_swap_algebra(u)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = alg.embed_blocks([x, y])
    got = alg.act(1, a)
    want = alg.embed_blocks([u @ y @ u.conj().T, u @ x @ u.conj().T])
    assert operator_norm(got - want) <= 1e-13


def test_action_is_isometric_and_homomorphic():
    rng = np.random.default_rng(3)
    alg = block_swap_algebra(rand_involution(rng, 2))
    a = alg.block_mask() * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert operator_norm(alg.act(1, a)) == pytest.approx(operator_norm(a), abs=1e-12)
    assert alg.action_defect() <= 1e-12


def test_dimension_mismatch_rejected():
    g = cyclic_group(2)
    perms = np.array([[0, 1], [1, 0]])
    unitaries = ((np.eye(2, dtype=complex), np.eye(3, dtype=complex)),) * 2
    with pytest.raises((BlockMismatchError, ValueError)):
        GAlgebra(blocks=(2, 3), group=g, perms=perms, unitaries=unitaries)


def test_conform_rejects_off_block_mass():
    alg = trivial_action_algebra((2, 2), cyclic_group(2))
    a = np.ones((4, 4), dtype=complex)
    with pytest.raises(BlockMismatchError):
        alg.conform(a)


# --- towers ------------------------------------------------------------------

def three_block_tower():
    alg = trivial_action_algebra((2, 2, 2), cyclic_group(2))
    return Tower(algebra=alg, ideals=(frozenset(), frozenset({0}),
                                      frozenset({0, 1})))


def test_projection_identity_level():
    t = three_block_tower()
    rng = np.random.default_rng(4)
    a = t.algebra.block_mask() * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    assert operator_norm(t.project(1, 1, t.project(1, 0, a)) - t.project(1, 0, a)) == 0.0


def test_projection_composition_law():
    t = three_block_tower()
    rng = np.random.default_rng(5)
    a = t.algebra.block_mask() * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    via = t.project(2, 1, t.project(1, 0, a))
    direct = t.project(2, 0, a)
    assert np.array_equal(via, direct)


def test_projection_drops_ideal_blocks():
    t = three_block_tower()
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 2)) + 0j
    y = rng.standard_normal((2, 2)) + 0j
    z = rng.standard_normal((2, 2)) + 0j
    a = t.algebra.embed_blocks([x, y, z])
    out = t.project(1, 0, a)
    assert operator_norm(out[0:2, 0:2]) == 0.0
    assert np.array_equal(out[2:4, 2:4], y)
    assert np.array_equal(out[4:6, 4:6], z)


def test_project_level_bounds():
    t = three_block_tower()
    a = np.zeros((6, 6), dtype=complex)
    with pytest.raises(ValueError):
        t.project(0, 1, a)
    with pytest.raises(ValueError):
        t.project(5, 0, a)


def test_act_commutes_with_projection():
    rng = np.random.default_rng(7)
    g = cyclic_group(2)
    u = rand_involution(rng, 2)
    perms = np.array([[0, 1, 2], [1, 0, 2]])
    unitaries = ((np.eye(2, dtype=complex),) * 3,
                 (u, u, rand_involution(rng, 2)))
    alg = GAlgebra(blocks=(2, 2, 2), group=g, perms=perms, unitaries=unitaries)
    t = Tower(algebra=alg, ideals=(frozenset(), frozenset({0, 1})))
    a = alg.block_mask() * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    lhs = t.project(1, 0, alg.act(1, a))
    rhs = alg.act(1, t.project(1, 0, a))
    assert operator_norm(lhs - rhs) <= 1e-13


def test_noninvariant_ideal_rejected():
    alg = block_swap_algebra()
    with pytest.raises(ValueError, match="invariant"):
        Tower(algebra=alg, ideals=(frozenset({0}),))


def test_nonincreasing_chain_rejected():
    alg = trivial_action_algebra((2, 2), cyclic_group(2))
    with pytest.raises(ValueError, match="increasing"):
        Tower(algebra=alg, ideals=(frozenset({0}), frozenset({1})))


# --- invariant lifting -------------------------------------------------------

def test_invariant_lift_trivial_action():
    t = three_block_tower()
    rng = np.random.default_rng(8)
    x = t.algebra.embed_blocks([None, None,
                                rng.standard_normal((2, 2)) + 0j])
    a = invariant_lift(t, x)
    assert operator_norm(t.project_to_top(0, a) - x) <= 1e-13
    assert t.invariance_defect_at_top(a * t.level_mask(t.top)) <= 1e-13


def test_invariant_lift_zero():
    t = three_block_tower()
    a = invariant_lift(t, np.zeros((6, 6), dtype=complex))
    assert operator_norm(t.project_to_top(0, a)) <= 1e-14
    assert max(operator_norm(t.algebra.act(g, a) - a) for g in range(2)) <= 1e-14


def test_invariant_lift_block_swap_tower():
    # Z/2 swaps blocks 0 and 1; block 2 is fixed and carries the quotient.
    rng = np.random.default_rng(9)
    g = cyclic_group(2)
    u = rand_involution(rng, 2)
    perms = np.array([[0, 1, 2], [1, 0, 2]])
    unitaries = ((np.eye(2, dtype=complex),) * 3, (u, u, np.eye(2, dtype=complex)))
    alg = GAlgebra(blocks=(2, 2, 2), group=g, perms=perms, unitaries=unitaries)
    t = Tower(algebra=alg, ideals=(frozenset(), frozenset({0, 1})))
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = alg.embed_blocks([None, None, m])      # invariant at the top
    junk = alg.embed_blocks([rng.standard_normal((2, 2)) + 0j, None, m])
    a = invariant_lift(t, x, lift=junk)
    # oracle: the two-element average of the junked lift
    want = haar_average(g, lambda h: alg.act(h, junk))
    assert operator_norm(a - want) <= 1e-13
    assert max(operator_norm(alg.act(h, a) - a) for h in range(2)) <= 1e-12
    assert operator_norm(t.project_to_top(0, a) - x) <= 1e-12


def test_invariant_lift_rejects_noninvariant():
    rng = np.random.default_rng(10)
    g = cyclic_group(2)
    u = rand_involution(rng, 2)
    alg = matrix_algebra(2, g, [np.eye(2, dtype=complex), u])
    t = Tower(algebra=alg, ideals=(frozenset(),))
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    if t.invariance_defect_at_top(x) > 1e-10:
        with pytest.raises(ValueError, match="invariant"):
            invariant_lift(t, x)


# --- invariant lift randomized battery ---------------------------------------

def shift_conjugation_tower(d):
    g = cyclic_group(d)
    shift = np.roll(np.eye(d), 1, axis=0).astype(complex)
    perms = np.tile(np.arange(2), (d, 1))
    unitaries = tuple((np.linalg.matrix_power(shift, k),
                       np.linalg.matrix_power(shift, k)) for k in range(d))
    alg = GAlgebra(blocks=(d, d), group=g, perms=perms, unitaries=unitaries)
    return Tower(algebra=alg, ideals=(frozenset(), frozenset({0}))), shift


@pytest.mark.parametrize("d", [2, 3])
def test_invariant_lift_randomized_battery(d):
    rng = np.random.default_rng(11 + d)
    t, shift = shift_conjugation_tower(d)
    alg = t.algebra
    g = alg.group
    for _ in range(100):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x_block = haar_average(g, lambda k: np.linalg.matrix_power(shift, k) @ m
                               @ np.linalg.matrix_power(shift, k).conj().T)
        x = alg.embed_blocks([None, x_block])
        a = invariant_lift(t, x)
        assert max(operator_norm(alg.act(h, a) - a) for h in range(d)) <= 1e-12
        assert operator_norm(t.project_to_top(0, a) - x) <= 1e-12


# --- commutant expectation ----------------------------------------------------

def full_matrix_unit_images(n):
    imgs = np.zeros((n, n, n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            imgs[j, k, j, k] = 1.0
    return [imgs]


def test_commutant_expectation_full_algebra():
    # identity copy of M_n inside M_n: E(a) = a_{11} I
    rng = np.random.default_rng(12)
    n = 3
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e = commutant_expectation(full_matrix_unit_images(n), a)
    assert operator_norm(e - a[0, 0] * np.eye(n)) <= 1e-13


def test_commutant_expectation_fixes_commutant():
    # lambda = M_2 x 1 inside M_4; the commutant is 1 x M_2
    n = 4
    imgs = np.zeros((2, 2, n, n), dtype=complex)
    for j in range(2):
        for k in range(2):
            imgs[j, k] = np.kron(np.eye(2)[:, [j]] @ np.eye(2)[[k], :], np.eye(2))
    rng = np.random.default_rng(13)
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = np.kron(np.eye(2), c)
    e = commutant_expectation([imgs], a)
    assert operator_norm(e - a) <= 1e-13
    # E(a) commutes with the copy, and E is idempotent
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    eb = commutant_expectation([imgs], b)
    for j in range(2):
        for k in range(2):
            assert operator_norm(eb @ imgs[j, k] - imgs[j, k] @ eb) <= 1e-11
    assert operator_norm(commutant_expectation([imgs], eb) - eb) <= 1e-11


def test_commutant_expectation_trivial_summand():
    # F = C embedded as scalars: E(a) = a
    n = 3
    imgs = np.zeros((1, 1, n, n), dtype=complex)
    imgs[0, 0] = np.eye(n)
    rng = np.random.default_rng(14)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert operator_norm(commutant_expectation([imgs], a) - a) <= 1e-14


def test_commutant_expectation_rejects_bad_units():
    n = 2
    imgs = np.zeros((1, 1, n, n), dtype=complex)
    imgs[0, 0] = np.diag([1.0, 0.0])   # diagonals don't sum to 1
    with pytest.raises(ValueError):
        commutant_expectation([imgs], np.eye(n))


def test_ghom_defect_measurement():
    g = cyclic_group(2)
    vals = np.stack([np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)])
    h = GHom(source=g, values=vals, level=0)
    assert h.mult_defect() <= 1e-15
    bad = np.stack([np.eye(2, dtype=complex), np.diag([1.0, np.exp(0.3j)])])
    h2 = GHom(source=g, values=bad, level=0)
    assert h2.mult_defect() == pytest.approx(abs(np.exp(0.6j) - 1), abs=1e-12)
