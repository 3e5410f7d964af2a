import numpy as np
import pytest
from scipy.linalg import expm

from equifix.groups import cyclic_group, make_group
from equifix.matfun import operator_norm
from equifix.galgebra import matrix_algebra
from equifix.cocycles import (Cocycle, coboundary, one_step_cobound,
                              trivialize, verify_integral_estimate)
from equifix.repcorrect import DefectTooLargeError
from equifix.scenarios import (exact_rep_values, random_skew, random_unitary,
                               trial_rng)


def action_algebra(spec, dim, seed, group=None):
    rng = trial_rng(seed, 0)
    group = group or make_group(spec["kind"], spec.get("params"))
    unitaries = exact_rep_values(spec, group, dim, rng)
    return matrix_algebra(dim, group, list(unitaries)), rng


def cocycle_defect_oracle(w):
    """Independent double-loop defect computation."""
    G = w.group
    worst = 0.0
    for g in range(G.order):
        for h in range(G.order):
            worst = max(worst, operator_norm(
                w.values[G.mul(g, h)] -
                w.values[g] @ w.algebra.act(g, w.values[h])))
    return worst


def test_trivial_cocycle():
    alg, _ = action_algebra({"kind": "cyclic", "params": 3}, 3, 0)
    vals = np.stack([np.eye(3, dtype=complex)] * 3)
    assert Cocycle(alg, vals).defect() <= 1e-12


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
    noisy = Cocycle(alg, noisy_vals)
    assert noisy.defect() == pytest.approx(cocycle_defect_oracle(noisy), abs=1e-13)


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
        r, _ = w.mismatch(v0)
        z = one_step_cobound(w, v0)
        assert w.mismatch(z)[0] <= 10 * r ** 2 + 1e-11
        assert operator_norm(z - v0) <= 2 * r + 1e-11


def test_one_step_requires_exact_cocycle():
    alg, rng = action_algebra({"kind": "cyclic", "params": 3}, 3, 7)
    v = random_unitary(rng, 3)
    vals = np.stack([coboundary(alg, v).values[g] @ expm(0.05 * random_skew(rng, 3))
                     for g in range(3)])
    with pytest.raises(DefectTooLargeError, match="exact"):
        one_step_cobound(Cocycle(alg, vals), v)


def test_one_step_rejects_large_mismatch():
    alg, rng = action_algebra({"kind": "cyclic", "params": 2}, 3, 8)
    v = random_unitary(rng, 3)
    w = coboundary(alg, v)
    far = v @ expm(1.5 * random_skew(rng, 3))
    if w.mismatch(far)[0] > 1 / 5:
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
    w2 = Cocycle(alg, np.stack([s @ w.values[k] @ s.conj().T for k in range(3)]))
    z2 = one_step_cobound(w2, s @ v0 @ s.conj().T)
    assert operator_norm(z2 - s @ z @ s.conj().T) <= 1e-11


def test_trivialize_trivial():
    alg, _ = action_algebra({"kind": "cyclic", "params": 4}, 3, 10)
    vals = np.stack([np.eye(3, dtype=complex)] * 4)
    res = trivialize(Cocycle(alg, vals))
    assert operator_norm(res.unitary - np.eye(3)) <= 1e-12
    assert res.iterations == 0


def test_trivialize_bounds():
    alg, rng = action_algebra({"kind": "dihedral", "params": 3}, 4, 11)
    v = random_unitary(rng, 4)
    w = coboundary(alg, v)
    v0 = v @ expm(0.02 * random_skew(rng, 4))
    r, _ = w.mismatch(v0)
    res = trivialize(w, v0)
    assert res.mismatch <= 1e-12
    assert operator_norm(res.unitary - v0) <= 2 * r / (1 - 10 * r) + 1e-10
    # mismatch cascade r (10 r)^m
    for m, mism, _ in res.trace:
        assert mism <= r * (10 * r) ** m + 1e-10 * max(m, 1)


def test_trivialize_rejects_large_seed_mismatch():
    alg, rng = action_algebra({"kind": "cyclic", "params": 3}, 3, 12)
    v = random_unitary(rng, 3)
    w = coboundary(alg, v)
    far = v @ expm(0.8 * random_skew(rng, 3))
    if w.mismatch(far)[0] >= 1 / 10:
        with pytest.raises(DefectTooLargeError, match="1/10"):
            trivialize(w, far)


def test_trivialize_tower_quotient_pinned():
    group = cyclic_group(3)
    dim = 3
    rng = trial_rng(13, 0)
    base = exact_rep_values({"kind": "cyclic", "params": 3}, group, dim, rng)
    unitaries = [np.block([[base[g], np.zeros((dim, dim))],
                           [np.zeros((dim, dim)), base[g]]])
                 for g in range(group.order)]
    alg = matrix_algebra(2 * dim, group, unitaries)
    mask = np.zeros((2 * dim, 2 * dim))
    mask[:dim, :dim] = 1.0
    quotient = lambda a: a * (1 - mask)
    v = np.block([[random_unitary(rng, dim), np.zeros((dim, dim))],
                  [np.zeros((dim, dim)), random_unitary(rng, dim)]])
    w = coboundary(alg, v)
    k = random_skew(rng, 2 * dim) * mask
    k /= operator_norm(k)
    v0 = v @ expm(0.03 * k)
    res = trivialize(w, v0, quotient=quotient)
    assert res.quotient_drift <= 1e-12
    assert res.mismatch <= 1e-12


# --- averaging estimate --------------------------------------------------------

def test_integral_estimate_trivial():
    g = cyclic_group(4)
    vals = np.stack([np.eye(3, dtype=complex)] * 4)
    lhs, bound = verify_integral_estimate(g, vals)
    assert lhs <= 1e-14
    assert bound == 0.0


def test_integral_estimate_constant_family():
    # a constant family is the exact fixed point of the comparison
    g = cyclic_group(5)
    rng = trial_rng(14, 0)
    u = np.diag(np.exp(1j * rng.uniform(-0.4, 0.4, size=3)))
    vals = np.stack([u] * 5)
    lhs, _ = verify_integral_estimate(g, vals)
    assert lhs <= 1e-13


def test_integral_estimate_commuting_family():
    # commuting but non-constant: the averaged unitary loses modulus, so the
    # gap is genuinely of size ~r^2/2 and the bound must still hold
    g = cyclic_group(5)
    rng = trial_rng(14, 1)
    thetas = rng.uniform(-0.4, 0.4, size=(5, 3))
    vals = np.stack([np.diag(np.exp(1j * thetas[k])) for k in range(5)])
    r = max(operator_norm(vals[k] - np.eye(3)) for k in range(5))
    lhs, bound = verify_integral_estimate(g, vals)
    assert 0 < lhs <= bound + 1e-11


def test_integral_estimate_noncommuting():
    g = make_group("symmetric", 3)
    rng = trial_rng(15, 0)
    theta = 2 * np.arcsin(0.3 / 2)
    vals = np.stack([expm(theta * random_skew(rng, 4)) for _ in range(6)])
    r = max(operator_norm(vals[k] - np.eye(4)) for k in range(6))
    assert r <= 0.31
    lhs, bound = verify_integral_estimate(g, vals)
    assert lhs <= bound + 1e-11
    assert bound <= 5 * 0.31 ** 2 / (2 * (1 - 2 * 0.31)) + 1e-12


def test_integral_estimate_rejects_large_r():
    g = cyclic_group(2)
    vals = np.stack([np.eye(2, dtype=complex), -np.eye(2, dtype=complex)])
    with pytest.raises(DefectTooLargeError):
        verify_integral_estimate(g, vals)
