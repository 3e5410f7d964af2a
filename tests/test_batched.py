"""Property tests for the stacked log/exp kernels and for the correctors that
take one stack per group element.  Each fast path is compared with the
route it replaced: the per-matrix joint eigensystem (with its Schur
fallback) for the log, and the per-pair Python loop for the correctors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from equifix.cocycles import coboundary, one_step_cobound
from equifix.galgebra import matrix_algebra
from equifix.groups import make_group
from equifix.matfun import (BranchCutError, exp_skew, normal_eigensystem,
                            operator_norm, principal_log_unitary)
from equifix.repcorrect import ApproxRep, one_step
from equifix.scenarios import (exact_rep_values, perturb_rep_values,
                               random_skew, random_unitary, trial_rng)

GROUP_SPECS = [{"kind": "cyclic", "params": 2}, {"kind": "cyclic", "params": 5},
               {"kind": "dihedral", "params": 3}, {"kind": "symmetric", "params": 3}]

seeds = st.integers(0, 2 ** 32 - 1)
# None: generic spectrum; a float: three repeated levels, jittered by that much.
clusters = st.sampled_from([None, 0.0, 1e-9, 1e-4])
# Distances ||u - 1|| on both sides of the half-plane radius 1/2.
radii = st.lists(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.9),
                 min_size=1, max_size=6)


def reference_log(u):
    """Principal log of one unitary through the joint eigensystem."""
    spec = normal_eigensystem(u)
    v = spec.eigenvectors
    x = (v * (1j * np.angle(spec.eigenvalues))) @ v.conj().T
    return (x - x.conj().T) / 2


def spectrum(rng, n, theta, cluster):
    """n eigenvalue arguments in [-theta, theta], one of them at +-theta."""
    if cluster is None:
        args = rng.uniform(-theta, theta, size=n)
    else:
        args = rng.choice(theta * np.array([-1.0, 0.0, 1.0]), size=n)
        args = np.clip(args + cluster * rng.standard_normal(n), -theta, theta)
    args[0] = theta * rng.choice([-1.0, 1.0])
    return args


def unitary_at_radius(rng, n, radius, cluster):
    """Unitary with ||u - 1|| = radius (to rounding)."""
    args = spectrum(rng, n, 2 * np.arcsin(radius / 2), cluster)
    v = random_unitary(rng, n)
    return (v * np.exp(1j * args)) @ v.conj().T


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 6), radii, clusters)
def test_stacked_log_matches_per_slice_routes(seed, n, rs, cluster):
    rng = np.random.default_rng(seed)
    u = np.stack([unitary_at_radius(rng, n, r, cluster) for r in rs])
    x = principal_log_unitary(u)
    assert x.shape == u.shape
    for i in range(len(rs)):
        assert operator_norm(x[i] - principal_log_unitary(u[i])) <= 1e-12
        assert operator_norm(x[i] - reference_log(u[i])) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 6), st.lists(st.floats(0.0, 3.0), min_size=1,
                                          max_size=6), clusters)
def test_stacked_exp_matches_per_slice_routes(seed, n, norms, cluster):
    rng = np.random.default_rng(seed)
    xs = []
    for t in norms:
        v = random_unitary(rng, n)
        xs.append((v * (1j * spectrum(rng, n, t, cluster))) @ v.conj().T)
    x = np.stack(xs)
    u = exp_skew(x)
    assert u.shape == x.shape
    for i in range(len(norms)):
        assert operator_norm(u[i] - exp_skew(x[i])) <= 1e-12
        assert operator_norm(u[i] - expm(x[i])) <= 1e-12


def test_stacked_log_keeps_leading_axes():
    rng = np.random.default_rng(0)
    u = np.stack([unitary_at_radius(rng, 3, r, None)
                  for r in (0.1, 0.4, 0.9, 1.5, 0.0, 1.2)]).reshape(2, 3, 3, 3)
    x = principal_log_unitary(u)
    assert x.shape == u.shape
    assert operator_norm(x[1, 2] - reference_log(u[1, 2])) <= 1e-12
    assert np.max(operator_norm(exp_skew(x) - u)) <= 1e-12


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 2, 2)])
def test_empty_inputs_keep_their_shape(shape):
    z = np.zeros(shape, dtype=complex)
    assert principal_log_unitary(z).shape == shape
    assert exp_skew(z).shape == shape


def test_stack_with_slice_at_minus_one_is_rejected():
    rng = np.random.default_rng(1)
    u = np.stack([unitary_at_radius(rng, 3, 0.1, None),
                  np.diag([-1.0, 1.0, 1.0]).astype(complex),
                  unitary_at_radius(rng, 3, 0.3, None)])
    with pytest.raises(BranchCutError, match=r"slice \(1,\)"):
        principal_log_unitary(u)


def test_stack_with_nonunitary_slice_is_rejected():
    rng = np.random.default_rng(2)
    u = np.stack([unitary_at_radius(rng, 3, 0.1, None) for _ in range(3)])
    u[2] *= 1.01
    with pytest.raises(ValueError, match=r"not unitary.*slice \(2,\)"):
        principal_log_unitary(u)


def test_stack_with_nonskew_slice_is_rejected():
    rng = np.random.default_rng(3)
    x = np.stack([random_skew(rng, 3) for _ in range(3)])
    x[1] += 1e-6 * np.eye(3)
    with pytest.raises(ValueError, match=r"skew.*slice \(1,\)"):
        exp_skew(x)


# --- correctors against the per-pair loop -------------------------------------

def reference_one_step(rep):
    """One representation-correction step, one log per pair (g, k)."""
    G, v = rep.group, rep.values
    new = np.empty_like(v)
    for g in range(G.order):
        logs = [reference_log(v[k].conj().T @ v[G.mul(k, g)] @ v[g].conj().T)
                for k in range(G.order)]
        new[g] = expm(np.mean(logs, axis=0)) @ v[g]
    return new


def reference_one_step_cobound(w, v):
    """One coboundary-correction step, one log per group element h."""
    A, G = w.algebra, w.group
    logs = [reference_log(v.conj().T @ A.act(G.inverse(h), w.values[h].conj().T @ v))
            for h in G.elements()]
    return v @ expm(np.mean(logs, axis=0))


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(GROUP_SPECS), st.integers(1, 6),
       st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.05))
def test_one_step_matches_per_pair_loop(seed, spec, dim, magnitude):
    rng = trial_rng(seed, 0)
    group = make_group(spec["kind"], spec["params"])
    exact = exact_rep_values(spec, group, dim, rng)
    rep = ApproxRep(group, perturb_rep_values(exact, magnitude, rng))
    out = one_step(rep)
    assert np.max(operator_norm(out.values - reference_one_step(rep))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(GROUP_SPECS), st.integers(1, 6),
       st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.05))
def test_one_step_cobound_matches_per_element_loop(seed, spec, dim, magnitude):
    rng = trial_rng(seed, 0)
    group = make_group(spec["kind"], spec["params"])
    alg = matrix_algebra(dim, group, list(exact_rep_values(spec, group, dim, rng)))
    v = random_unitary(rng, dim)
    w = coboundary(alg, v)
    v0 = v @ expm(magnitude * random_skew(rng, dim))
    z = one_step_cobound(w, v0)
    assert operator_norm(z - reference_one_step_cobound(w, v0)) <= 1e-12


def test_approx_rep_values_are_a_read_only_copy():
    group = make_group("cyclic", 3)
    vals = exact_rep_values({"kind": "cyclic", "params": 3}, group, 2,
                            trial_rng(4, 0))
    rep = ApproxRep(group, vals)
    vals[1] = 0.0                      # the caller's array stays writable
    assert rep.defect() <= 1e-12
    with pytest.raises(ValueError):
        rep.values[1] = 0.0
