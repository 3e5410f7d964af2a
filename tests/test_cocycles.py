import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from dense_reference import operator_norm, random_blocks
from equifix.groups import cyclic_group, make_group
from equifix.matfun import Blocks, adjoint, exp_skew, polar_unitary
from equifix.galgebra import BlockMismatchError, GAlgebra, Tower, matrix_algebra
from equifix.cocycles import (coboundary, cocycle, mismatch, one_step_cobound,
                              trivialize, verify_integral_estimate)
from equifix.repcorrect import ApproxRep, DefectTooLargeError
from equifix.scenarios import (exact_rep_values, random_skew, random_unitary,
                               trial_rng)


def action_algebra(spec, dim, seed, group=None):
    rng = trial_rng(seed, 0)
    group = group or make_group(spec["kind"], spec.get("params"))
    unitaries = exact_rep_values(spec, group, dim, rng)
    return matrix_algebra(dim, group, list(unitaries)), rng


def cocycle_defect_oracle(w):
    """Independent double-loop defect computation: the largest defect and
    the first pair (row-major) attaining it."""
    G = w.group
    worst, pair = -1.0, None
    for g in range(G.order):
        for h in range(G.order):
            d = operator_norm(w.values[G.mult[g, h]] -
                              w.values[g] @ w.act(g, w.values[h]))
            if d > worst:
                worst, pair = d, (g, h)
    return worst, pair


def test_trivial_cocycle():
    alg, _ = action_algebra({"kind": "cyclic", "params": 3}, 3, 0)
    vals = np.stack([np.eye(3, dtype=complex)] * 3)
    assert cocycle(alg, vals).defect() <= 1e-12


def test_coboundary_is_cocycle():
    alg, rng = action_algebra({"kind": "dihedral", "params": 3}, 4, 1)
    v = random_unitary(rng, 4)
    w = coboundary(alg, v)
    assert w.defect() <= 1e-12


def test_defect_matches_oracle():
    alg, rng = action_algebra({"kind": "cyclic", "params": 4}, 3, 2)
    v = random_unitary(rng, 3)
    w = coboundary(alg, v)
    noisy_vals = np.stack([w.values[g] @ expm(0.05 * random_skew(rng, 3))
                           for g in range(4)])
    noisy = cocycle(alg, noisy_vals)
    assert noisy.defect() == pytest.approx(cocycle_defect_oracle(noisy)[0], abs=1e-13)


def test_one_step_fixed_point():
    alg, rng = action_algebra({"kind": "cyclic", "params": 3}, 4, 3)
    v = random_unitary(rng, 4)
    w = coboundary(alg, v)
    z = one_step_cobound(w, v)
    assert operator_norm(z - v) <= 1e-12


def test_one_step_paper_bounds():
    for seed, spec, dim, mag in [
        (4, {"kind": "cyclic", "params": 3}, 4, 0.03),
        (5, {"kind": "dihedral", "params": 4}, 4, 0.02),
        (6, {"kind": "symmetric", "params": 3}, 5, 0.01),
    ]:
        alg, rng = action_algebra(spec, dim, seed)
        v = random_unitary(rng, dim)
        w = coboundary(alg, v)
        v0 = v @ expm(mag * random_skew(rng, dim))
        r, _ = mismatch(w, v0)
        z = one_step_cobound(w, v0)
        assert mismatch(w, z)[0] <= 10 * r ** 2 + 1e-11
        assert operator_norm(z - v0) <= 2 * r + 1e-11


def test_one_step_requires_exact_cocycle():
    alg, rng = action_algebra({"kind": "cyclic", "params": 3}, 3, 7)
    v = random_unitary(rng, 3)
    vals = np.stack([coboundary(alg, v).values[g] @ expm(0.05 * random_skew(rng, 3))
                     for g in range(3)])
    with pytest.raises(DefectTooLargeError, match="exact"):
        one_step_cobound(cocycle(alg, vals), v)


def test_one_step_rejects_large_mismatch():
    alg, rng = action_algebra({"kind": "cyclic", "params": 2}, 3, 8)
    v = random_unitary(rng, 3)
    w = coboundary(alg, v)
    far = v @ expm(1.5 * random_skew(rng, 3))
    if mismatch(w, far)[0] > 1 / 5:
        with pytest.raises(DefectTooLargeError, match="1/5"):
            one_step_cobound(w, far)


def test_one_step_invariant_conjugation_covariance():
    # conjugating (w, v, action) by an invariant unitary conjugates the output
    g = cyclic_group(3)
    dim = 6
    rng = trial_rng(9, 0)
    shift = np.kron(np.roll(np.eye(3), 1, axis=0), np.eye(2)).astype(complex)
    alg = matrix_algebra(dim, g, [np.linalg.matrix_power(shift, k) for k in range(3)])
    v = random_unitary(rng, dim)
    w = coboundary(alg, v)
    v0 = v @ expm(0.03 * random_skew(rng, dim))
    # invariant unitary: function of the shift
    s = np.kron(np.eye(3), random_unitary(rng, 2))
    assert max(operator_norm(alg.act(k, s) - s) for k in range(3)) <= 1e-12
    z = one_step_cobound(w, v0)
    w2 = cocycle(alg, np.stack([s @ w.values[k] @ s.conj().T for k in range(3)]))
    z2 = one_step_cobound(w2, s @ v0 @ s.conj().T)
    assert operator_norm(z2 - s @ z @ s.conj().T) <= 1e-11


def test_trivialize_trivial():
    alg, _ = action_algebra({"kind": "cyclic", "params": 4}, 3, 10)
    vals = np.stack([np.eye(3, dtype=complex)] * 4)
    res = trivialize(cocycle(alg, vals), np.eye(3, dtype=complex), tol=1e-12)
    assert operator_norm(res.last - np.eye(3)) <= 1e-12
    assert res.iterations == 0


def test_trivialize_bounds():
    alg, rng = action_algebra({"kind": "dihedral", "params": 3}, 4, 11)
    v = random_unitary(rng, 4)
    w = coboundary(alg, v)
    v0 = v @ expm(0.02 * random_skew(rng, 4))
    r, _ = mismatch(w, v0)
    res = trivialize(w, v0, tol=1e-12)
    assert res.trace[-1][1] <= 1e-12
    assert operator_norm(res.last - v0) <= 2 * r / (1 - 10 * r) + 1e-10
    # mismatch cascade r (10 r)^m
    for m, mism, _ in res.trace:
        assert mism <= r * (10 * r) ** m + 1e-10 * max(m, 1)


def test_trivialize_rejects_large_seed_mismatch():
    alg, rng = action_algebra({"kind": "cyclic", "params": 3}, 3, 12)
    v = random_unitary(rng, 3)
    w = coboundary(alg, v)
    far = v @ expm(0.8 * random_skew(rng, 3))
    if mismatch(w, far)[0] >= 1 / 10:
        with pytest.raises(DefectTooLargeError, match="1/10"):
            trivialize(w, far, tol=1e-12)


def test_trivialize_tower_quotient_pinned():
    group = cyclic_group(3)
    dim = 3
    rng = trial_rng(13, 0)
    base = exact_rep_values({"kind": "cyclic", "params": 3}, group, dim, rng)
    # Two copies of M_dim under Ad(base); the top quotient kills the first.
    alg = GAlgebra((dim, dim), group, np.zeros((group.order, 2), dtype=int) + [0, 1],
                   tuple((base[g], base[g]) for g in range(group.order)))
    tower = Tower(algebra=alg, ideals=(frozenset(), frozenset({0})))
    v = np.stack([random_unitary(rng, dim), random_unitary(rng, dim)])
    w = coboundary(tower.level(0), Blocks((v,)))
    v0 = v.copy()
    v0[0] = v[0] @ expm(0.03 * random_skew(rng, dim))
    res = trivialize(w, Blocks((v0,)), tol=1e-12, pin=(tower, 0))
    assert res.quotient_drift == 0.0
    assert np.array_equal(res.last.parts[0][1], v0[1])
    assert res.trace[-1][1] <= 1e-12


def test_cocycle_refuses_values_that_do_not_fit_the_algebra():
    alg, rng = action_algebra({"kind": "cyclic", "params": 3}, 3, 16)
    w = coboundary(alg, random_unitary(rng, 3))
    with pytest.raises(BlockMismatchError, match="dense element"):
        cocycle(alg, w.values[:, :2, :2])
    with pytest.raises(BlockMismatchError, match="element blocks"):
        cocycle(alg, Blocks((np.stack([w.values, w.values], axis=1),)))


def test_cocycle_refuses_non_unitary_values():
    alg, rng = action_algebra({"kind": "cyclic", "params": 3}, 3, 17)
    vals = 1.01 * coboundary(alg, random_unitary(rng, 3)).values
    with pytest.raises(ValueError, match="values flagged unitary but defect is"):
        cocycle(alg, vals)


GROUP_SPECS = [{"kind": "cyclic", "params": 2}, {"kind": "cyclic", "params": 5},
               {"kind": "dihedral", "params": 3}, {"kind": "symmetric", "params": 3}]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(GROUP_SPECS),
       st.sampled_from([(1,), (3,), (1, 2), (2, 2)]),
       st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.1))
def test_twisted_defect_matches_oracle(seed, spec, blocks, magnitude):
    # A twisted ApproxRep on a block algebra (dense values for one block):
    # its cached defect and pair are those of the per-pair loop.
    rng = trial_rng(seed, 0)
    group = make_group(spec["kind"], spec["params"])
    actions = [exact_rep_values(spec, group, b, rng) for b in blocks]
    alg = GAlgebra(blocks, group, np.tile(np.arange(len(blocks)), (group.order, 1)),
                   tuple(tuple(a[g] for a in actions) for g in range(group.order)))
    k = random_blocks(blocks, rng, (group.order,))
    k = k - adjoint(k)
    vals = (coboundary(alg, polar_unitary(random_blocks(blocks, rng))).values @
            exp_skew(magnitude / np.max(operator_norm(k)) * k))
    if len(blocks) == 1:
        vals = vals.parts[0][:, 0]
    w = ApproxRep(group, vals, unital=False, act=alg.act)
    worst, pair = cocycle_defect_oracle(w)
    assert w.defect_with_argmax()[1] == pair
    assert abs(w.defect() - worst) <= 1e-13


# --- averaging estimate --------------------------------------------------------

def test_integral_estimate_trivial():
    g = cyclic_group(4)
    vals = np.stack([np.eye(3, dtype=complex)] * 4)
    lhs, bound = verify_integral_estimate(g, vals)[:2]
    assert lhs <= 1e-14
    assert bound == 0.0


def test_integral_estimate_constant_family():
    # a constant family is the exact fixed point of the comparison
    g = cyclic_group(5)
    rng = trial_rng(14, 0)
    u = np.diag(np.exp(1j * rng.uniform(-0.4, 0.4, size=3)))
    vals = np.stack([u] * 5)
    lhs = verify_integral_estimate(g, vals)[0]
    assert lhs <= 1e-13


def test_integral_estimate_commuting_family():
    # commuting but non-constant: the averaged unitary loses modulus, so the
    # gap is genuinely of size ~r^2/2 and the bound must still hold
    g = cyclic_group(5)
    rng = trial_rng(14, 1)
    thetas = rng.uniform(-0.4, 0.4, size=(5, 3))
    vals = np.stack([np.diag(np.exp(1j * thetas[k])) for k in range(5)])
    r = max(operator_norm(vals[k] - np.eye(3)) for k in range(5))
    lhs, bound = verify_integral_estimate(g, vals)[:2]
    assert 0 < lhs <= bound + 1e-11


def test_integral_estimate_noncommuting():
    g = make_group("symmetric", 3)
    rng = trial_rng(15, 0)
    theta = 2 * np.arcsin(0.3 / 2)
    vals = np.stack([expm(theta * random_skew(rng, 4)) for _ in range(6)])
    r = max(operator_norm(vals[k] - np.eye(4)) for k in range(6))
    assert r <= 0.31
    lhs, bound = verify_integral_estimate(g, vals)[:2]
    assert lhs <= bound + 1e-11
    assert bound <= 5 * 0.31 ** 2 / (2 * (1 - 2 * 0.31)) + 1e-12


def test_integral_estimate_rejects_large_r():
    g = cyclic_group(2)
    vals = np.stack([np.eye(2, dtype=complex), -np.eye(2, dtype=complex)])
    with pytest.raises(DefectTooLargeError):
        verify_integral_estimate(g, vals)
