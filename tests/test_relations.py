import numpy as np
import pytest

from equifix.groups import cyclic_group
from equifix.galgebra import matrix_algebra
from equifix.matfun import operator_norm
from equifix.relations import (measure_partition_seeds,
                               partition_admissibility_threshold,
                               stabilize_partition, stabilize_tracial_partition)
from equifix.repcorrect import DefectTooLargeError
from equifix.scenarios import (build_rokhlin_scenario, random_unitary,
                               trial_rng)


def swap_action_algebra():
    """Z/2 on M_2 by the flip that exchanges e_11 and e_22."""
    g = cyclic_group(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    return matrix_algebra(2, g, [np.eye(2, dtype=complex), x])


def rotated_projection(theta):
    c, s = np.cos(theta), np.sin(theta)
    r = np.array([[c, -s], [s, c]], dtype=complex)
    return r @ np.diag([1.0, 0.0]).astype(complex) @ r.conj().T


# --- partition stabilization ----------------------------------------------------

def test_stabilize_exact_partition_is_fixed():
    alg = swap_action_algebra()
    seeds = np.stack([np.diag([1.0, 0.0]).astype(complex),
                      np.diag([0.0, 1.0]).astype(complex)])
    res = stabilize_partition(alg, seeds)
    assert res.displacement <= 1e-12
    assert max(res.residuals.values()) <= 1e-12


def test_stabilize_two_by_two_closed_form():
    # Rotated-seed oracle: symmetrization diagonalizes the seeds, giving
    # w0 = cos(2 theta) diag(1, -1); polar and rounding land exactly on
    # (e_11, e_22).  So the corrected family is the standard partition.
    alg = swap_action_algebra()
    theta = 0.05
    p = rotated_projection(theta)
    seeds = np.stack([p, np.eye(2, dtype=complex) - p])
    res = stabilize_partition(alg, seeds)
    want = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    assert max(operator_norm(res.projections[g] - want[g]) for g in range(2)) <= 1e-12
    assert res.displacement <= 0.2
    assert res.displacement == pytest.approx(abs(np.sin(theta)), abs=1e-10)
    assert max(res.residuals.values()) <= 1e-12


def test_stabilize_certifies_all_conditions():
    rng = trial_rng(3, 0)
    algebra, exact, seeds = build_rokhlin_scenario(3, 2, 0.03, rng)
    res = stabilize_partition(algebra, seeds)
    for name in ("projection", "self_adjoint", "orthogonality", "equivariance",
                 "unit_sum"):
        assert res.residuals[name] <= 1e-12, name
    assert res.displacement < 0.5


def test_stabilize_gauge_covariance():
    # conjugating seeds and action by a fixed unitary conjugates the output
    rng = trial_rng(4, 0)
    algebra, exact, seeds = build_rokhlin_scenario(2, 2, 0.02, rng)
    u = random_unitary(rng, 4)
    conj_unitaries = [u @ algebra.unitaries[g][0] @ u.conj().T for g in range(2)]
    conj_alg = matrix_algebra(4, algebra.group, conj_unitaries)
    conj_seeds = np.stack([u @ seeds[g] @ u.conj().T for g in range(2)])
    res = stabilize_partition(algebra, seeds)
    res_c = stabilize_partition(conj_alg, conj_seeds)
    worst = max(operator_norm(res_c.projections[g] -
                              u @ res.projections[g] @ u.conj().T)
                for g in range(2))
    assert worst <= 1e-11


def test_stabilize_rejects_rough_seeds():
    alg = swap_action_algebra()
    seeds = np.stack([np.diag([1.0, 0.0]).astype(complex)] * 2)  # both equal
    with pytest.raises(DefectTooLargeError):
        stabilize_partition(alg, seeds)


def test_stabilize_requires_standard_cyclic():
    from equifix.groups import make_group
    g = make_group("symmetric", 3)
    alg = matrix_algebra(2, g)
    with pytest.raises(ValueError, match="cyclic"):
        stabilize_partition(alg, np.zeros((6, 2, 2), dtype=complex))


def test_admissibility_threshold_positive_and_monotone():
    ts = [partition_admissibility_threshold(d) for d in (2, 3, 4)]
    assert all(t > 1e-3 for t in ts)
    assert ts[0] >= ts[1] >= ts[2]


def test_measured_seed_defects():
    rng = trial_rng(5, 0)
    algebra, exact, seeds = build_rokhlin_scenario(2, 3, 0.04, rng)
    d = measure_partition_seeds(algebra, seeds)
    assert d.idempotency <= 1e-12          # conjugated projections stay exact
    assert d.self_adjointness <= 1e-12
    assert 0 < d.overall < 0.3


# --- tracial variant -------------------------------------------------------------

def corner_model(d, block, corank, magnitude, seed):
    rng = trial_rng(seed, 0)
    algebra, exact, seeds = build_rokhlin_scenario(d, block, magnitude, rng,
                                                   corank)
    return algebra, exact, seeds, rng


def test_tracial_exact_reduces_to_partition():
    # q = 1 case: corank 0 and exact seeds reproduce the plain corrector
    algebra, exact, _, _ = corner_model(2, 2, 0, 0.0, 6)
    res = stabilize_tracial_partition(algebra, exact,
                                      np.eye(4, dtype=complex) / 1.0)
    assert res.complement_rank == 0
    assert max(operator_norm(res.projections[g] - exact[g]) for g in range(2)) <= 1e-12


def test_tracial_corner_bookkeeping():
    algebra, exact, seeds, rng = corner_model(2, 2, 1, 0.02, 7)
    n = 5
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = y @ y.conj().T
    x /= operator_norm(x)
    res = stabilize_tracial_partition(algebra, seeds, x)
    assert res.complement_rank == 1
    checked = ("projection", "self_adjoint", "orthogonality", "equivariance",
               "unit_sum")
    for name in checked:
        assert res.residuals[name] <= 1e-12, name
    # ||e x e|| reported against direct computation
    e = res.projections.sum(axis=0)
    assert res.witness_compression_norm == pytest.approx(
        operator_norm(e @ x @ e), abs=1e-10)
    assert operator_norm(e - res.corner_projection) <= 1e-12


def test_tracial_rejects_bad_witness():
    algebra, exact, seeds, _ = corner_model(2, 2, 1, 0.02, 8)
    with pytest.raises(ValueError, match="witness"):
        stabilize_tracial_partition(algebra, seeds, 2 * np.eye(5, dtype=complex))
