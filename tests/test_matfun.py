import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import operator_norm, root_projections, schur_round_unitary
from equifix.matfun import (MidpointError, _range_isometry, exp_skew, largest_norm,
                            polar_unitary, principal_log_unitary,
                            spectral_round_unitary)
from equifix.repcorrect import EPS0, UNITARIZE_EPS


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def rand_skew(rng, n, norm=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (a - a.conj().T) / 2
    return norm * k / operator_norm(k)


def power_iteration_norm(a, iters=500):
    """Independent largest-singular-value oracle: power iteration on a*a."""
    m = a.conj().T @ a
    rng = np.random.default_rng(123)
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = m @ v
        lam = np.linalg.norm(w)
        if lam == 0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


def test_operator_norm_diagonal():
    assert largest_norm(np.diag([1.0, 2.0j]))[0] == pytest.approx(2.0, abs=1e-14)


def test_operator_norm_nilpotent():
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    assert largest_norm(e12)[0] == pytest.approx(1.0, abs=1e-14)


def test_operator_norm_against_power_iteration():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert largest_norm(a)[0] == pytest.approx(power_iteration_norm(a), abs=1e-9)


def test_operator_norm_rejects_nan():
    a = np.array([[np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(ValueError):
        largest_norm(a)


# --- polar ------------------------------------------------------------------

def test_polar_fixes_unitary():
    rng = np.random.default_rng(1)
    u = rand_unitary(rng, 4)
    assert operator_norm(polar_unitary(u) - u) <= 1e-13


def test_polar_positive_scaling():
    assert operator_norm(polar_unitary(2 * np.eye(3)) - np.eye(3)) <= 1e-14


def test_polar_hermitian_perturbation():
    # a = v (1 + 0.01 H): the positive factor is absorbed entirely, and the
    # scalar bound |t (t^2)^{-1/2} - 1| on singular values caps the movement.
    rng = np.random.default_rng(2)
    v = rand_unitary(rng, 4)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2
    h /= operator_norm(h)
    a = v @ (np.eye(4) + 0.01 * h)
    assert operator_norm(polar_unitary(a) - v) <= 0.011


def test_polar_distance_contract_on_draws():
    # numerical check backing the eps = eps0/2 instantiation: any a within
    # eps of a unitary u has polar part within eps0 of u.
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        u = rand_unitary(rng, n)
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        e *= (UNITARIZE_EPS * 0.999) / operator_norm(e) * rng.random()
        a = u + e
        s = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(s - 1)) < UNITARIZE_EPS
        assert operator_norm(polar_unitary(a) - u) < EPS0


def test_polar_near_singular_reports_value():
    a = np.diag([1.0, 1e-12]).astype(complex)
    with pytest.raises(ValueError, match="singular value"):
        polar_unitary(a)


def test_polar_left_equivariance():
    rng = np.random.default_rng(4)
    a = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    u = rand_unitary(rng, 4)
    assert operator_norm(polar_unitary(u @ a) - u @ polar_unitary(a)) <= 1e-11


# --- log / exp --------------------------------------------------------------

def test_log_identity():
    assert operator_norm(principal_log_unitary(np.eye(3))) <= 1e-14


def test_log_diagonal():
    thetas = np.array([0.3, -0.45])        # ||u - 1|| = 2 sin(0.225) < 1/2
    u = np.diag(np.exp(1j * thetas))
    x = principal_log_unitary(u)
    assert operator_norm(x - np.diag(1j * thetas)) <= 1e-13


def test_log_linearization_bound():
    # ||log u - (u - 1)|| <= ||u - 1||^2 / (2 (1 - ||u - 1||))
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        u = exp_skew(rand_skew(rng, n, norm=rng.random() * 0.41))
        r = operator_norm(u - np.eye(n))
        if r >= 0.999:
            continue
        lhs = operator_norm(principal_log_unitary(u) - (u - np.eye(n)))
        assert lhs <= r ** 2 / (2 * (1 - r)) + 1e-12


def test_log_rejects_unitary_outside_the_disc():
    u = np.diag([np.exp(1j * (np.pi - 1e-9)), 1.0])
    with pytest.raises(ValueError, match=r"outside the log's disc: \|\|u - 1\|\| = 2\.000e\+00"):
        principal_log_unitary(u)
    # Just outside the rim: eigenvalue argument 2 arcsin(1/4) (1 + 1e-9).
    u = np.diag([np.exp(2j * np.arcsin(0.25) * (1 + 1e-9)), 1.0])
    with pytest.raises(ValueError, match="outside the log's disc"):
        principal_log_unitary(u)


def test_log_rejects_nonunitary():
    with pytest.raises(ValueError, match="not unitary"):
        principal_log_unitary(2 * np.eye(2))


def test_exp_zero():
    assert operator_norm(exp_skew(np.zeros((3, 3))) - np.eye(3)) <= 1e-15


def test_exp_log_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        u = exp_skew(rand_skew(rng, n, norm=rng.random() * 0.5))
        x = principal_log_unitary(u)
        assert operator_norm(x + x.conj().T) <= 1e-13
        assert operator_norm(exp_skew(x) - u) <= 1e-11


def test_exp_linearization_bound():
    # ||exp(X) - (1 + X)|| <= ||X||^2 / (2 (1 - ||X||)) for ||X|| <= 0.9
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        x = rand_skew(rng, n, norm=rng.random() * 0.9)
        s = operator_norm(x)
        lhs = operator_norm(exp_skew(x) - np.eye(n) - x)
        assert lhs <= s ** 2 / (2 * (1 - s)) + 1e-12


def test_exp_rejects_nonskew():
    with pytest.raises(ValueError, match="skew"):
        exp_skew(np.eye(2))


# --- spectral rounding ------------------------------------------------------

def scalar_round(theta, d):
    """Independent per-eigenvalue oracle for the rounding map."""
    k = int(np.round(theta * d / (2 * np.pi))) % d
    return np.exp(2j * np.pi * k / d)


def test_round_fixes_exact_spectrum():
    rng = np.random.default_rng(8)
    v = rand_unitary(rng, 4)
    w = v @ np.diag(np.exp(2j * np.pi * np.array([0, 1, 1, 2]) / 3)) @ v.conj().T
    assert operator_norm(spectral_round_unitary(w, 3)[0] - w) <= 1e-12


def test_round_two_by_two():
    w = np.diag([np.exp(0.1j), np.exp(1j * (np.pi - 0.2))])
    z = spectral_round_unitary(w, 2)[0]
    assert operator_norm(z - np.diag([1.0, -1.0])) <= 1e-12


def test_round_scalar_case():
    w = np.exp(0.3j) * np.eye(2)
    z = spectral_round_unitary(w, 4)[0]
    assert operator_norm(z - np.eye(2)) <= 1e-12
    assert scalar_round(0.3, 4) == 1.0


def test_round_matches_scalar_oracle():
    rng = np.random.default_rng(9)
    d = 3
    thetas = rng.uniform(-0.4, 0.4, size=4) + \
        2 * np.pi * rng.integers(0, d, size=4) / d
    v = rand_unitary(rng, 4)
    w = v @ np.diag(np.exp(1j * thetas)) @ v.conj().T
    z, vecs, ks, margin = spectral_round_unitary(w, d)
    want = v @ np.diag([scalar_round(t, d) for t in thetas]) @ v.conj().T
    assert operator_norm(z - want) <= 1e-11
    assert operator_norm((vecs * np.exp(2j * np.pi * ks / d)) @ vecs.conj().T - z) <= 1e-12
    # The margin is the least distance of an argument to a cell midpoint.
    cell = 2 * np.pi / d
    assert margin == pytest.approx(np.min(np.abs(np.mod(thetas, cell) - cell / 2)),
                                   abs=1e-12)


def test_round_properties():
    rng = np.random.default_rng(10)
    d = 4
    thetas = rng.uniform(-0.5, 0.5, size=5) + \
        2 * np.pi * rng.integers(0, d, size=5) / d
    v = rand_unitary(rng, 5)
    w = v @ np.diag(np.exp(1j * thetas)) @ v.conj().T
    z = spectral_round_unitary(w, d)[0]
    # order d, idempotent, commutes with the input
    assert operator_norm(np.linalg.matrix_power(z, d) - np.eye(5)) <= 1e-11
    assert operator_norm(spectral_round_unitary(z, d)[0] - z) <= 1e-11
    assert operator_norm(z @ w - w @ z) <= 1e-11
    # phase equivariance: round(lam w) = lam round(w) for d-th roots lam
    for k in range(1, d):
        lam = np.exp(2j * np.pi * k / d)
        assert operator_norm(spectral_round_unitary(lam * w, d)[0] - lam * z) <= 1e-11


def test_round_midpoint_rejected():
    w = np.diag([np.exp(1j * np.pi / 2), 1.0])
    with pytest.raises(MidpointError):
        spectral_round_unitary(w, 2)


# --- projection rounding ----------------------------------------------------

def round_to_projection(b):
    """The spectral projection iso iso* onto the eigenvalues > 1/2, iso the
    isometry of ``_range_isometry``, as the tracial corrector forms it."""
    iso = _range_isometry(b)
    return iso @ iso.conj().T


def test_projection_round_diagonal():
    b = np.diag([0.9, 0.1]).astype(complex)
    assert operator_norm(round_to_projection(b) - np.diag([1.0, 0.0])) <= 1e-13


def test_projection_round_fixes_projection():
    rng = np.random.default_rng(11)
    v = rand_unitary(rng, 4)
    p = v[:, :2] @ v[:, :2].conj().T
    assert operator_norm(round_to_projection(p) - p) <= 1e-13


def test_projection_round_perturbation():
    rng = np.random.default_rng(12)
    for _ in range(20):
        v = rand_unitary(rng, 5)
        p = v[:, :2] @ v[:, :2].conj().T
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = (h + h.conj().T) / 2
        h /= operator_norm(h)
        b = p + 0.05 * h
        q = round_to_projection(b)
        assert operator_norm(q @ q - q) <= 1e-12
        assert operator_norm(q - q.conj().T) <= 1e-12
        # eigenvalue-perturbation oracle: full diagonalization of b
        vals = np.linalg.eigvalsh(b)
        cap = max(min(abs(l), abs(1 - l)) for l in vals)
        assert operator_norm(q - b) <= cap + 1e-12
        assert operator_norm(q - p) <= 0.12


def test_projection_round_band_rejected():
    with pytest.raises(ValueError, match="forbidden band"):
        _range_isometry(np.diag([0.5, 1.0]))
    with pytest.raises(ValueError, match="self-adjoint"):
        _range_isometry(np.array([[0j, 1], [0, 0]]))


# --- conjugation covariance and the rounding's eigenvectors -----------------

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_calculus_conjugation_covariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    u = exp_skew(rand_skew(rng, n, norm=0.45))     # ||u - 1|| < 1/2
    v = rand_unitary(rng, n)
    conj_u = v @ u @ v.conj().T
    assert operator_norm(principal_log_unitary(conj_u) -
                         v @ principal_log_unitary(u) @ v.conj().T) <= 1e-11
    assert operator_norm(spectral_round_unitary(conj_u, 5)[0] -
                         v @ spectral_round_unitary(u, 5)[0] @ v.conj().T) <= 1e-11
    a = np.eye(n) + 0.2 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    assert operator_norm(polar_unitary(v @ a @ v.conj().T) -
                         v @ polar_unitary(a) @ v.conj().T) <= 1e-11
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2
    b = 0.2 * h / operator_norm(h)      # spectrum well clear of the band
    assert operator_norm(round_to_projection(v @ b @ v.conj().T) -
                         v @ round_to_projection(b) @ v.conj().T) <= 1e-11


def test_eigensystem_quality_on_cos_collisions():
    # Pairs +-theta, exact or 1e-6 apart, which the unrotated Hermitian part
    # cannot split: the eigenvectors returned still diagonalize u.
    rng = np.random.default_rng(13)
    v = rand_unitary(rng, 6)
    thetas = np.array([0.7, -0.7 + 3e-6, 0.7 + 2e-6, -0.7,
                       np.pi - 0.6, -np.pi + 0.6 + 1e-6])
    u = v @ np.diag(np.exp(1j * thetas)) @ v.conj().T
    z, vv, ks, _ = spectral_round_unitary(u, 2)
    diag = vv.conj().T @ u @ vv
    assert operator_norm(diag - np.diag(np.diag(diag))) <= 1e-12
    assert operator_norm(vv.conj().T @ vv - np.eye(6)) <= 1e-12
    want = v @ np.diag([scalar_round(t, 2) for t in thetas]) @ v.conj().T
    assert operator_norm(z - want) <= 1e-12


def test_eigensystem_rejects_nonnormal():
    # A square w with w* w = 1 is normal: the unitarity gate refuses every
    # input that is not.
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        spectral_round_unitary(a, 2)


def test_residual_gate_refuses_a_collision_outside_the_admitted_set():
    # Arguments pi/4 +- 1.2 have one cosine after the rotation by -pi/4, and
    # both lie outside the admitted set for d = 2.
    rng = np.random.default_rng(14)
    v = rand_unitary(rng, 4)
    thetas = np.array([np.pi / 4 + 1.2, np.pi / 4 - 1.2, 0.0, np.pi])
    u = v @ np.diag(np.exp(1j * thetas)) @ v.conj().T
    with pytest.raises(ValueError, match="residual"):
        spectral_round_unitary(u, 2)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 8),
       st.sampled_from([None, 0.0, 1e-9, 1e-4]), st.booleans())
def test_rounding_matches_the_schur_reference(seed, d, n, cluster, mirrored):
    # Admitted spectra, each argument within 0.9 pi/(2d) of a d-th root (the
    # boundary tests in test_relations take the edge): generic, or levels
    # repeated and jittered by `cluster`, and with pairs +-theta.
    rng = np.random.default_rng(seed)
    half_gap = np.pi / (2 * d)
    offsets = rng.uniform(-0.9, 0.9, size=n) * half_gap
    offsets[0] = rng.choice([-0.9, 0.0, 0.9]) * half_gap
    args = 2 * np.pi * rng.integers(0, d, size=n) / d + offsets
    if cluster is not None:
        args = rng.choice(args[:2], size=n) + cluster * rng.standard_normal(n)
    if mirrored:
        args[n // 2:2 * (n // 2)] = -args[:n // 2]
    v = rand_unitary(rng, n)
    w = (v * np.exp(1j * args)) @ v.conj().T
    z, vecs, ks, margin = spectral_round_unitary(w, d)
    z_ref, ks_ref, margin_ref, projections = schur_round_unitary(w, d)
    assert margin > half_gap
    assert operator_norm(z - z_ref) <= 1e-12
    assert np.array_equal(np.bincount(ks, minlength=d), np.bincount(ks_ref, minlength=d))
    assert largest_norm(root_projections(vecs, ks, d) - projections)[0] <= 1e-12
    assert abs(margin - margin_ref) <= 1e-14
