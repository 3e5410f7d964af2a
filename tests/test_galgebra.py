import numpy as np
import pytest

from dense_reference import operator_norm, random_blocks, trivial_algebra
from equifix.groups import cyclic_group
from equifix.galgebra import BlockMismatchError, GAlgebra, Tower
from equifix.matfun import Blocks
from equifix.repcorrect import ApproxRep


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
    a = random_blocks(alg.blocks, rng)
    assert operator_norm(alg.act(0, a) - a) <= 1e-14


def test_trivial_action():
    alg = trivial_algebra((2, 3), cyclic_group(3))
    rng = np.random.default_rng(1)
    a = random_blocks(alg.blocks, rng)
    for g in range(3):
        assert operator_norm(alg.act(g, a) - a) <= 1e-14


def test_block_swap_matches_hand_composition():
    rng = np.random.default_rng(2)
    u = rand_involution(rng, 2)
    alg = block_swap_algebra(u)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got = alg.act(1, Blocks((np.stack([x, y]),)))
    want = Blocks((np.stack([u @ y @ u.conj().T, u @ x @ u.conj().T]),))
    assert operator_norm(got - want) <= 1e-13


def test_action_is_isometric_and_homomorphic():
    rng = np.random.default_rng(3)
    alg = block_swap_algebra(rand_involution(rng, 2))
    a = random_blocks(alg.blocks, rng)
    assert operator_norm(alg.act(1, a)) == pytest.approx(operator_norm(a), abs=1e-12)
    assert alg.action_defect(2, 0.0) <= 1e-12


def test_dimension_mismatch_rejected():
    g = cyclic_group(2)
    perms = np.array([[0, 1], [1, 0]])
    unitaries = ((np.eye(2, dtype=complex), np.eye(3, dtype=complex)),) * 2
    with pytest.raises((BlockMismatchError, ValueError)):
        GAlgebra(blocks=(2, 3), group=g, perms=perms, unitaries=unitaries)


def test_conform_rejects_off_block_mass():
    # A dense matrix, whose off-block part block storage cannot hold, and
    # blocks of the wrong sizes are both refused at the algebra's boundary.
    alg = trivial_algebra((2, 3), cyclic_group(2))
    with pytest.raises(BlockMismatchError, match="dense element"):
        alg.act(1, np.ones((5, 5), dtype=complex))
    with pytest.raises(BlockMismatchError, match="element blocks"):
        alg.act(1, random_blocks((2, 2), np.random.default_rng(0)))


# --- towers ------------------------------------------------------------------

def three_block_tower():
    alg = trivial_algebra((2, 2, 2), cyclic_group(2))
    return Tower(algebra=alg, ideals=(frozenset(), frozenset({0}),
                                      frozenset({0, 1})))


def test_projection_identity_level():
    t = three_block_tower()
    a = random_blocks(t.algebra.blocks, np.random.default_rng(4))
    assert operator_norm(t.project(1, 1, t.project(1, 0, a)) - t.project(1, 0, a)) == 0.0


def test_projection_composition_law():
    t = three_block_tower()
    a = random_blocks(t.algebra.blocks, np.random.default_rng(5))
    via = t.project(2, 1, t.project(1, 0, a))
    direct = t.project(2, 0, a)
    assert all(np.array_equal(p, q) for p, q in zip(via.parts, direct.parts))


def test_projection_drops_ideal_blocks():
    t = three_block_tower()
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 2)) + 0j
    y = rng.standard_normal((2, 2)) + 0j
    z = rng.standard_normal((2, 2)) + 0j
    out = t.project(1, 0, Blocks((np.stack([x, y, z]),)))
    assert t.level(1).blocks == (2, 2)
    assert np.array_equal(out.parts[0], np.stack([y, z]))


def test_project_level_bounds():
    t = three_block_tower()
    a = random_blocks(t.algebra.blocks, np.random.default_rng(0))
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
    a = random_blocks(alg.blocks, rng)
    lhs = t.project(1, 0, alg.act(1, a))
    rhs = t.level(1).act(1, t.project(1, 0, a))
    assert operator_norm(lhs - rhs) <= 1e-13


def test_noninvariant_ideal_rejected():
    alg = block_swap_algebra()
    with pytest.raises(ValueError, match="invariant"):
        Tower(algebra=alg, ideals=(frozenset({0}),))


def test_nonincreasing_chain_rejected():
    alg = trivial_algebra((2, 2), cyclic_group(2))
    with pytest.raises(ValueError, match="increasing"):
        Tower(algebra=alg, ideals=(frozenset({0}), frozenset({1})))


def test_group_map_defect_measurement():
    g = cyclic_group(2)
    vals = np.stack([np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)])
    h = ApproxRep(g, vals, unitary=False, unital=False)
    assert h.defect() <= 1e-15
    bad = np.stack([np.eye(2, dtype=complex), np.diag([1.0, np.exp(0.3j)])])
    h2 = ApproxRep(g, bad, unitary=False, unital=False)
    assert h2.defect() == pytest.approx(abs(np.exp(0.6j) - 1), abs=1e-12)
