import numpy as np
import pytest
from scipy.linalg import expm

from dense_reference import operator_norm
from equifix.groups import cyclic_group, make_group
from equifix.graded import (GradedAlgebra, NonAbelianError, character_table,
                            graded_correct, regular_graded_model)
from equifix.repcorrect import EPS0, DefectTooLargeError
from equifix.scenarios import perturb_rep_values, random_skew, trial_rng


@pytest.mark.parametrize("spec", [("cyclic", 2), ("cyclic", 3), ("cyclic", 4),
                                  ("product", (("cyclic", 2), ("cyclic", 2)))])
def test_character_table_exact(spec):
    g = make_group(spec[0], spec[1])
    chi = character_table(g)
    n = g.order
    # exact roots of unity, multiplicative, orthogonal rows
    assert np.max(np.abs(np.abs(chi) - 1)) <= 1e-14
    for t in range(n):
        for a in range(n):
            for b in range(n):
                assert abs(chi[t, g.mult[a, b]] - chi[t, a] * chi[t, b]) <= 1e-12
    gram = chi @ chi.conj().T / n
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
    assert np.max(np.abs(chi[0] - 1)) <= 1e-14   # trivial character first


def test_character_table_rejects_nonabelian():
    with pytest.raises(NonAbelianError):
        character_table(make_group("symmetric", 3))


def test_graded_algebra_rejects_nonabelian():
    g = make_group("symmetric", 3)
    with pytest.raises(NonAbelianError):
        GradedAlgebra(group=g,
                      dual_unitaries=np.stack([np.eye(6, dtype=complex)] * 6))


def test_z2_model_projections():
    # C*(Z/2) on C^2: u_1 = diag(1, -1); P_1 fixes it, P_0 kills it
    g = cyclic_group(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    dual = np.stack([np.eye(2, dtype=complex), x])
    alg = GradedAlgebra(group=g, dual_unitaries=dual)
    u1 = np.diag([1.0, -1.0]).astype(complex)
    assert operator_norm(alg.projection(1, u1) - u1) <= 1e-14
    assert operator_norm(alg.projection(0, u1)) <= 1e-14


def test_component_recovery():
    # x assembled from known graded parts is recovered component by component
    g = cyclic_group(4)
    alg, left = regular_graded_model(g)
    rng = trial_rng(0, 0)
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    parts = [coeffs[k] * left[k] for k in range(4)]
    x = sum(parts)
    for k in range(4):
        assert operator_norm(alg.projection(k, x) - parts[k]) <= 1e-12


def test_projection_identities():
    g = cyclic_group(3)
    alg, _ = regular_graded_model(g)
    rng = trial_rng(1, 0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    ps = [alg.projection(k, x) for k in range(3)]
    # completeness, idempotence, mutual annihilation, contractivity
    assert operator_norm(sum(ps) - x) <= 1e-12
    for k in range(3):
        assert operator_norm(alg.projection(k, ps[k]) - ps[k]) <= 1e-12
        assert operator_norm(ps[k]) <= operator_norm(x) + 1e-12
        for l in range(3):
            if l != k:
                assert operator_norm(alg.projection(l, ps[k])) <= 1e-12


def test_component_multiplication_and_star():
    g = cyclic_group(4)
    alg, _ = regular_graded_model(g)
    rng = trial_rng(2, 0)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for a in range(4):
        for b in range(4):
            prod = alg.projection(a, x) @ alg.projection(b, y)
            ab = g.mult[a, b]
            for k in range(4):
                if k != ab:
                    assert operator_norm(alg.projection(k, prod)) <= 1e-12
        xa = alg.projection(a, x)
        assert operator_norm(alg.projection(g.inv[a], x.conj().T) -
                             xa.conj().T) <= 1e-12


def test_graded_correct_exact_input():
    g = cyclic_group(3)
    alg, left = regular_graded_model(g)
    res, residuals = graded_correct(alg, left, tol=1e-12)
    assert res.iterations == 0
    assert res.trace[-1][2] <= 1e-12
    assert max(residuals) <= 1e-13


def test_graded_correct_perturbed_z4():
    g = cyclic_group(4)
    alg, left = regular_graded_model(g)
    rng = trial_rng(3, 0)
    values = perturb_rep_values(left, 0.002, rng)
    res, residuals = graded_correct(alg, values, tol=1e-12)
    assert res.last.defect() <= 1e-12
    # per-iterate component membership, not just at the limit
    assert len(residuals) == res.iterations + 1
    assert max(residuals) <= 1e-12
    assert alg.component_residual(res.last.values) <= 1e-12
    cap = 2 * (6 * EPS0) / (1 - 17 * 6 * EPS0)
    assert res.trace[-1][2] <= cap + 1e-10


def test_graded_correct_distance_in_measured_bound():
    g = cyclic_group(3)
    alg, left = regular_graded_model(g)
    rng = trial_rng(4, 0)
    values = perturb_rep_values(left, 0.0015, rng)
    comps = np.stack([alg.projection(k, values[k]) for k in range(3)])
    from equifix.matfun import polar_unitary
    from equifix.repcorrect import ApproxRep
    rho0 = np.stack([polar_unitary(c) for c in comps])
    r = ApproxRep(g, rho0).defect()
    res, _ = graded_correct(alg, values, tol=1e-12)
    assert res.trace[-1][2] <= 2 * r / (1 - 17 * r) + 1e-10


def test_graded_correct_rejects_offcomponent_excess():
    g = cyclic_group(3)
    alg, left = regular_graded_model(g)
    rng = trial_rng(5, 0)
    values = left.copy()
    values[1] = values[1] @ expm(0.2 * random_skew(rng, 3))
    with pytest.raises(DefectTooLargeError, match="component"):
        graded_correct(alg, values, tol=1e-12)


def test_graded_correct_rejects_singular_component():
    g = cyclic_group(2)
    alg, left = regular_graded_model(g)
    values = left.copy()
    values[1] = np.zeros((2, 2), dtype=complex)
    with pytest.raises(DefectTooLargeError):
        graded_correct(alg, values, tol=1e-12)


def test_graded_correct_admits_as_the_iterated_corrector():
    # Values exactly in their components, left-regular unitaries times
    # diagonal phases, but far from multiplicative: refused at 1/17 with
    # the message correct_to_rep gives.
    from equifix.repcorrect import ApproxRep, correct_to_rep
    g = cyclic_group(4)
    alg, left = regular_graded_model(g)
    phases = np.exp(0.2j * trial_rng(7, 0).standard_normal((4, 1, 4)))
    values = left * phases
    assert alg.component_residual(values) <= 1e-13
    with pytest.raises(DefectTooLargeError, match="not below 1/17") as want:
        correct_to_rep(ApproxRep(g, values, unital=False), tol=1e-12)
    with pytest.raises(DefectTooLargeError) as got:
        graded_correct(alg, values, tol=1e-12)
    assert str(got.value) == str(want.value)


def test_dual_action_must_be_homomorphism():
    g = cyclic_group(2)
    rng = trial_rng(6, 0)
    from equifix.scenarios import random_unitary
    bad = np.stack([np.eye(3, dtype=complex), random_unitary(rng, 3)])
    with pytest.raises(ValueError, match="homomorphism"):
        GradedAlgebra(group=g, dual_unitaries=bad)
