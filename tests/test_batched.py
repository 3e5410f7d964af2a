"""Property tests for the stacked log/exp kernels, for the correctors that
take one stacked log per step, for the stacked defect, group-average,
partition-defect and unitarization paths, for
the shared iteration driver, for the one-step figures the trial
runners read off it, and for the block-fit gate and the fresh copies
tower projections return.  Each fast path is compared with the route it
replaced: the per-matrix Schur eigensystem and the batched ``eigh``
half-plane route for the log, the batched ``eigh`` route and SciPy's
``expm`` for the exp, the per-pair
Python loop for the correctors, the defects and the averages, each
corrector's own loop for the driver (its cap patched, as
``repcorrect.ITERATION_CAP``), an explicit first step for the one-step
figures, and a per-value SVD loop for the unitarization."""

import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from equifix import cocycles, repcorrect
from equifix.cocycles import (TRIVIALIZE_MAX_MISMATCH, _cobound_step, coboundary,
                              cocycle, mismatch, one_step_cobound, trivialize)
from dense_reference import (dense_act, eigh_exp_skew, eigh_half_plane_log, embed,
                             layout, operator_norm, random_blocks, schur_eigensystem,
                             trivial_algebra, unitarize_values)
from equifix.galgebra import (BlockMismatchError, GAlgebra, Tower, matrix_algebra,
                              max_pair_defect)
from equifix.groups import make_group
from equifix.matfun import (EXP_CAP, Blocks, adjoint, exp_skew, polar_unitary,
                            principal_log_unitary)
from equifix.relations import _averaged_seeds, measure_partition_seeds
from equifix.repcorrect import (ITERATE_MAX_DEFECT, UNITARIZE_EPS, ApproxRep,
                                ConvergenceError, DefectTooLargeError,
                                correct_to_rep, equivariance_defect, one_step,
                                symmetrize, translation_source_action)
from equifix import scenarios
from equifix.scenarios import (Scenario, build_lift_scenario,
                               build_rokhlin_scenario, exact_rep_values,
                               perturb_rep_values, random_skew,
                               random_unitary, trial_rng)

GROUP_SPECS = [{"kind": "cyclic", "params": 2}, {"kind": "cyclic", "params": 5},
               {"kind": "dihedral", "params": 3}, {"kind": "symmetric", "params": 3}]

seeds = st.integers(0, 2 ** 32 - 1)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2
    norm = operator_norm(h)
    return h / norm if norm > 0 else h


# None: generic spectrum; a float: three repeated levels, jittered by that much.
clusters = st.sampled_from([None, 0.0, 1e-9, 1e-4])
# The rim of the log's disc, less a margin for the rounding of a drawn
# unitary's ||u - 1||: the log refuses a slice whose computed distance
# exceeds 1/2.
RIM = 0.5 * (1 - 1e-12)
# ||u - 1|| from 0 to the rim: the half-plane series.
disc_radii = st.lists(st.sampled_from([0.0, 1e-9, RIM]) | st.floats(0.0, RIM),
                      min_size=1, max_size=6)


def reference_log(u):
    """Principal log of one unitary through its Schur eigensystem."""
    lam, v = schur_eigensystem(u)
    x = (v * (1j * np.angle(lam))) @ v.conj().T
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
@given(seeds, st.integers(1, 6), disc_radii, clusters)
def test_stacked_log_matches_per_slice_routes(seed, n, rs, cluster):
    rng = np.random.default_rng(seed)
    u = np.stack([unitary_at_radius(rng, n, r, cluster) for r in rs])
    x = principal_log_unitary(u)
    assert x.shape == u.shape
    for i in range(len(rs)):
        assert np.array_equal(x[i], principal_log_unitary(u[i]))
        assert operator_norm(x[i] - reference_log(u[i])) <= 1e-12


def skew_with_norm(rng, n, norm, cluster):
    """Skew-Hermitian matrix, exactly, with ||x|| = norm (to rounding)."""
    v = random_unitary(rng, n)
    x = (v * (1j * spectrum(rng, n, norm, cluster))) @ v.conj().T
    return (x - x.conj().T) / 2


# Norms ||x|| below the exponential's series cap, at it, and above it up to
# 1e6, where the slice is scaled and squared.
exp_norms = st.lists(st.sampled_from([0.0, 1e-9, EXP_CAP, 1e6]) |
                     st.floats(0.0, 2 * EXP_CAP) | st.floats(0.0, 1e6),
                     min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(1, 6), exp_norms, clusters)
def test_stacked_exp_matches_per_slice_routes(seed, n, norms, cluster):
    rng = np.random.default_rng(seed)
    x = np.stack([skew_with_norm(rng, n, t, cluster) for t in norms])
    u = exp_skew(x)
    assert u.shape == x.shape
    allowed = 1e-13 * np.maximum(1.0, operator_norm(x))
    assert np.all(operator_norm(u - eigh_exp_skew(x)) <= allowed)
    # Unitary to rounding at every norm, also after 20 squarings.
    assert np.all(operator_norm(u.conj().swapaxes(-1, -2) @ u - np.eye(n)) <= 1e-14)
    for i in range(len(norms)):
        # A slice's bits do not depend on the rest of its stack.
        assert np.array_equal(u[i], exp_skew(x[i]))
        assert operator_norm(u[i] - expm(x[i])) <= allowed[i]
    got = exp_skew(Blocks((x[:, None], x[:, None, :1, :1])))
    assert np.array_equal(got.parts[0], u[:, None])
    assert np.array_equal(got.parts[1], exp_skew(x[:, None, :1, :1]))


def test_stacked_log_keeps_leading_axes():
    rng = np.random.default_rng(0)
    u = np.stack([unitary_at_radius(rng, 3, r, None)
                  for r in (0.1, 0.4, 0.2, RIM, 0.0, 0.3)]).reshape(2, 3, 3, 3)
    x = principal_log_unitary(u)
    assert x.shape == u.shape
    assert operator_norm(x[1, 2] - reference_log(u[1, 2])) <= 1e-12
    assert np.max(operator_norm(exp_skew(x) - u)) <= 1e-12


def assert_slices_close(x, want):
    """Each slice of x within 1e-14 (1 + ||x||) of the reference."""
    assert np.all(operator_norm(x - want) <= 1e-14 * (1 + operator_norm(x)))


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(1, 12), st.integers(1, 12), disc_radii, clusters)
def test_series_log_matches_eigh_and_schur_references(seed, n, m, rs, cluster):
    rng = np.random.default_rng(seed)
    u = np.stack([unitary_at_radius(rng, n, r, cluster) for r in rs])
    w = np.stack([unitary_at_radius(rng, m, r, cluster) for r in rs])
    xs = []
    for a in (u, w):
        x = principal_log_unitary(a)
        assert_slices_close(x, eigh_half_plane_log(a))
        assert_slices_close(x, np.stack([reference_log(s) for s in a]))
        # A slice's bits do not depend on the rest of its stack.
        for i in range(len(a)):
            assert np.array_equal(x[i], principal_log_unitary(a[i]))
        xs.append(x)
    got = principal_log_unitary(Blocks((u[:, None], w[:, None])))
    assert np.array_equal(got.parts[0], xs[0][:, None])
    assert np.array_equal(got.parts[1], xs[1][:, None])


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 2, 2)])
def test_empty_inputs_keep_their_shape(shape):
    z = np.zeros(shape, dtype=complex)
    assert principal_log_unitary(z).shape == shape
    assert exp_skew(z).shape == shape
    assert exp_skew(Blocks((z[..., None, :, :],))).parts[0].shape == \
        shape[:-2] + (1,) + shape[-2:]


def test_stack_with_slice_at_minus_one_is_rejected():
    rng = np.random.default_rng(1)
    u = np.stack([unitary_at_radius(rng, 3, 0.1, None),
                  np.diag([-1.0, 1.0, 1.0]).astype(complex),
                  unitary_at_radius(rng, 3, 0.5 * (1 + 1e-9), None)])
    with pytest.raises(ValueError, match=r"outside the log's disc.*slice \(1,\)"):
        principal_log_unitary(u)
    with pytest.raises(ValueError, match=r"outside the log's disc.*slice \(2,\)"):
        principal_log_unitary(u[[0, 2]][[0, 0, 1]])


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


def test_exp_of_a_slice_whose_frobenius_square_overflows_is_rejected():
    rng = np.random.default_rng(5)
    x = np.stack([random_skew(rng, 3) for _ in range(3)])
    x[2] *= 1e300                      # entries finite, ||x||_F^2 not
    with pytest.raises(ValueError, match=r"overflows at slice \(2,\)"):
        exp_skew(x)


def test_lift_with_an_overflowing_tower_base_fails_every_trial(tmp_path):
    s = Scenario.from_dict(scenarios.SUITE["lift"][1], seed=0, trials=3,
                           tower={"levels": 4, "base": 1e300, "ratio": 0.5})
    report = scenarios.run_scenario(s, tmp_path)
    assert not report.all_passed
    message = "input too large to exponentiate: ||x||_F overflows at slice (0,)"
    assert [t.error for t in report.trials] == [message] * 3
    # report.json records each error's class next to its message.
    trials = json.loads((tmp_path / "report.json").read_text())["trials"]
    assert [t["measured"] for t in trials] == [
        {"error": message, "error_class": "ValueError"}] * 3


@pytest.mark.parametrize("base, ratio, levels", [
    (1e4, 1e-6, [1, 1, 1]), (1e6, 1e-8, [1, 1, 1]), (1e6, 1e-6, [2, 2, 2])])
def test_lift_with_a_large_finite_tower_base_passes(tmp_path, base, ratio, levels):
    """Stage 0 is conjugated by the exponential of a skew of norm about
    base, taken by scaling and squaring; the trials pass at the levels the
    eigh exponential gave."""
    s = Scenario.from_dict(scenarios.SUITE["lift"][1], seed=0, trials=3,
                           tower={"levels": 4, "base": base, "ratio": ratio})
    report = scenarios.run_scenario(s, tmp_path)
    assert report.all_passed
    assert [t.measured["level"] for t in report.trials] == levels
    assert "error" not in (tmp_path / "report.json").read_text()


# --- correctors against the per-pair loop -------------------------------------

def reference_one_step(rep):
    """One representation-correction step, one log per pair (g, k)."""
    G, v = rep.group, rep.values
    new = np.empty_like(v)
    for g in range(G.order):
        logs = [reference_log(v[k].conj().T @ v[G.mult[k, g]] @ v[g].conj().T)
                for k in range(G.order)]
        new[g] = expm(np.mean(logs, axis=0)) @ v[g]
    return new


def reference_one_step_cobound(w, v):
    """One coboundary-correction step, one log per group element h."""
    G = w.group
    logs = [reference_log(v.conj().T @ w.act(G.inv[h], w.values[h].conj().T @ v))
            for h in range(G.order)]
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


# --- defects and conjugation ---------------------------------------------------

DEFECT_SPECS = GROUP_SPECS + [{"kind": "symmetric", "params": 4},
                              {"kind": "product",
                               "params": [["cyclic", 2], ["cyclic", 3]]}]


def first_max(table):
    """The largest entry of a {key: value} dict in insertion order and its
    key; later equal entries do not replace it."""
    worst, arg = -1.0, None
    for key, value in table.items():
        if value > worst:
            worst, arg = value, key
    return worst, arg


def regular_rep(group):
    """Permutation matrices of the left regular representation: products
    are exact, so every defect is exactly 0 and all pairs tie."""
    v = np.zeros((group.order, group.order, group.order), dtype=complex)
    for g in range(group.order):
        v[g, group.mult[g], np.arange(group.order)] = 1.0
    return v


def family(seed, spec, dim, magnitude, regular):
    rng = trial_rng(seed, 0)
    group = make_group(spec["kind"], spec["params"])
    exact = regular_rep(group) if regular else exact_rep_values(spec, group, dim, rng)
    return group, rng, perturb_rep_values(exact, magnitude, rng)


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(DEFECT_SPECS), st.integers(1, 5),
       st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.1), st.booleans())
def test_max_pair_defect_matches_per_pair_loop(seed, spec, dim, magnitude, regular):
    group, _, vals = family(seed, spec, dim, magnitude, regular)
    pairs = {(g, h): operator_norm(vals[group.mult[g, h]] - vals[g] @ vals[h])
             for g in range(group.order) for h in range(group.order)}
    worst, pair = first_max(pairs)
    got, got_pair = max_pair_defect(vals, group.mult)
    assert got_pair == pair and abs(got - worst) <= 1e-12
    rep = ApproxRep(group, vals)
    assert rep.defect_with_argmax()[1] == pair
    assert abs(rep.defect() - worst) <= 1e-12
    assert abs(ApproxRep(group, vals, unitary=False, unital=False).defect()
               - worst) <= 1e-12
    if regular and magnitude == 0.0:
        assert worst == 0.0 and pair == (0, 0)


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(DEFECT_SPECS), st.integers(1, 5),
       st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.1))
def test_cocycle_defect_and_mismatch_match_per_pair_loops(seed, spec, dim, magnitude):
    rng = trial_rng(seed, 0)
    group = make_group(spec["kind"], spec["params"])
    alg = matrix_algebra(dim, group, list(exact_rep_values(spec, group, dim, rng)))
    w = coboundary(alg, random_unitary(rng, dim))
    w = cocycle(alg, perturb_rep_values(w.values, magnitude, rng))
    pairs = {(g, h): operator_norm(w.values[group.mult[g, h]] -
                                   w.values[g] @ alg.act(g, w.values[h]))
             for g in range(group.order) for h in range(group.order)}
    worst, pair = first_max(pairs)
    assert w.defect_with_argmax()[1] == pair
    assert abs(w.defect() - worst) <= 1e-12
    v = random_unitary(rng, dim)
    per_g = {g: operator_norm(v @ alg.act(g, v).conj().T - w.values[g])
             for g in range(group.order)}
    worst, g = first_max(per_g)
    r, arg = mismatch(w, v)
    assert arg == g and abs(r - worst) <= 1e-12


def gate_family(seed, spec, blocks, magnitude, twisted):
    """A perturbed map of the group into the algebra on ``blocks`` (dense
    values for one block), whose action is by exact representations: that
    representation itself, or with ``twisted`` a coboundary, and the act
    of its defect (None for a representation)."""
    rng = trial_rng(seed, 0)
    group = make_group(spec["kind"], spec["params"])
    actions = [exact_rep_values(spec, group, b, rng) for b in blocks]
    alg = GAlgebra(blocks, group, np.tile(np.arange(len(blocks)), (group.order, 1)),
                   tuple(tuple(a[g] for a in actions) for g in range(group.order)))
    if twisted:
        vals = coboundary(alg, polar_unitary(random_blocks(blocks, rng))).values
    else:
        vals = Blocks(np.stack([actions[j] for j in pos], axis=1)
                      for _, pos in layout(blocks))
    k = random_blocks(blocks, rng, (group.order,))
    k = k - adjoint(k)
    vals = vals @ exp_skew(magnitude / np.max(operator_norm(k)) * k)
    if len(blocks) == 1:
        vals = vals.parts[0][:, 0]
    return group, vals, alg.act if twisted else None


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(GROUP_SPECS), st.sampled_from([(3,), (1, 2), (2, 2)]),
       st.sampled_from([0.0, 1e-13]) | st.floats(0.0, 0.1), st.booleans(),
       st.sampled_from([-1, 0, 1]))
def test_defect_gate_is_the_defect_against_its_tolerance(seed, spec, blocks, magnitude,
                                                         twisted, ulps):
    # defect_at_most(tol) against defect() <= tol, at the defect and one
    # ulp either side, for representations and cocycles, dense and Blocks.
    group, vals, act = gate_family(seed, spec, blocks, magnitude, twisted)

    def fresh():
        return ApproxRep(group, vals, unital=False, act=act)
    want = fresh().defect_with_argmax()
    tol = want[0] if ulps == 0 else float(np.nextafter(want[0], ulps * np.inf))
    rep = fresh()
    passed = rep.defect_at_most(tol)
    assert passed is (want[0] <= tol)
    # A pass caches nothing; a failure caches the exact defect and pair.
    assert rep._defect == (None if passed else want)
    assert rep.defect_with_argmax() == want
    assert rep.defect_at_most(tol) is (want[0] <= tol)       # from the cache


def test_defect_gate_on_an_exactly_multiplicative_family():
    # The regular representation's products are exact: its defect is 0.0
    # at pair (0, 0), which passes a gate at 0 and fails one just below.
    group = make_group("dihedral", 3)
    rep = ApproxRep(group, regular_rep(group))
    assert rep.defect_at_most(0.0) and rep._defect is None
    assert not rep.defect_at_most(-5e-324)
    assert rep._defect == (0.0, (0, 0)) == ApproxRep(group, rep.values).defect_with_argmax()


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(2, 5), st.floats(0.0, 0.1))
def test_equivariance_defect_matches_per_pair_loop(seed, d, noise):
    rng = trial_rng(seed, 0)
    action = translation_source_action(d)
    G = action.group
    alg = matrix_algebra(d, G, [np.diag(np.exp(-2j * np.pi * g * np.arange(d) / d))
                                for g in range(d)])
    shift = np.roll(np.eye(d), 1, axis=0).astype(complex)
    q = expm(noise * random_skew(rng, d))
    vals = np.stack([q @ np.linalg.matrix_power(shift, k) @ q.conj().T
                     for k in range(d)])
    loop = max(operator_norm(alg.act(g, vals[x]) -
                             action.scalar[g, x] * vals[action.perm[g, x]])
               for g in range(d) for x in range(d))
    assert abs(equivariance_defect(vals, alg.act, action) - loop) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from([(1, 2), (2, 3), (3, 1, 2)]),
       st.sampled_from([(), (3,)]))
def test_conform_gate_at_its_tolerance(seed, blocks, lead):
    # Block storage has no off-block part to measure, so the gate on
    # elements is exact: the algebra's own block shapes pass as they are,
    # one block too few or one block too large is refused, and so is a
    # dense matrix for an algebra of more than one block.
    rng = np.random.default_rng(seed)
    alg = trivial_algebra(blocks, make_group("cyclic", 2))
    a = random_blocks(blocks, rng, lead)
    assert alg.as_blocks(a) is a
    for other in (blocks[1:], blocks[:-1] + (blocks[-1] + 1,)):
        with pytest.raises(BlockMismatchError, match="element blocks"):
            alg.as_blocks(random_blocks(other, rng, lead))
    with pytest.raises(BlockMismatchError, match="dense element"):
        alg.as_blocks(np.zeros(lead + (alg.dim, alg.dim), dtype=complex))


def test_block_mask_is_a_fresh_writable_copy():
    # The level blocks Tower.project returns are a fresh writable copy:
    # scribbling on them changes neither the element nor a later
    # projection.
    alg = trivial_algebra((2, 3), make_group("cyclic", 2))
    tower = Tower(algebra=alg, ideals=(frozenset(), frozenset({0})))
    a = random_blocks(alg.blocks, np.random.default_rng(0))
    want = [p.copy() for p in a.parts]
    for level in (0, 1):
        out = tower.project(level, 0, a)
        assert all(p.flags.writeable for p in out.parts)
        for p in out.parts:
            p[...] = 1.0               # scribbling on a copy changes nothing
        assert all(np.array_equal(p, q) for p, q in zip(a.parts, want))
    assert tower.level(1).blocks == (3,)   # level 1 drops block 0
    assert np.array_equal(tower.project(1, 0, a).parts[0], want[1])


def test_cocycle_values_are_a_read_only_copy():
    group = make_group("cyclic", 3)
    rng = trial_rng(5, 0)
    alg = matrix_algebra(2, group, list(exact_rep_values(
        {"kind": "cyclic", "params": 3}, group, 2, rng)))
    vals = coboundary(alg, random_unitary(rng, 2)).values.copy()
    w = cocycle(alg, vals)
    vals[1] = 0.0                      # the caller's array stays writable
    assert w.defect() <= 1e-12
    with pytest.raises(ValueError):
        w.values[1] = 0.0


# --- the shared iteration driver ------------------------------------------------

def outcome(run):
    """(iterations, trace, result) of a corrector run, the message and
    trace of its ConvergenceError, or the message of its DefectTooLargeError."""
    try:
        result = run()
    except ConvergenceError as exc:
        return str(exc), exc.trace
    except DefectTooLargeError as exc:
        return "too large", str(exc)
    return result.iterations, result.trace, result


def reference_correct_to_rep(rep, tol, max_iter):
    """The admission bound and loop correct_to_rep ran before the shared
    driver."""
    r0, pair = rep.defect_with_argmax()
    if r0 >= ITERATE_MAX_DEFECT:
        raise DefectTooLargeError(
            f"defect {r0:.6g} is not below 1/17; attained at pair {pair}")
    trace = [(0, r0, 0.0)]
    current, iterations = rep, 0
    if trace[0][1] > tol:
        for it in range(1, max_iter + 1):
            current = one_step(current)
            iterations = it
            r = current.defect()
            trace.append((it, r, rep.distance_to(current)))
            if r <= tol:
                break
        else:
            raise ConvergenceError(
                f"defect still {trace[-1][1]:.3e} after {max_iter} iterations",
                trace)
    return SimpleNamespace(iterations=iterations, trace=trace, last=current)


def reference_trivialize(w, v0, tol, max_iter):
    """The admission bound and loop trivialize ran before the shared
    driver, measuring each iterate after the step and again on entry to the
    next step."""
    r0, g = mismatch(w, v0)
    if r0 >= TRIVIALIZE_MAX_MISMATCH:
        raise DefectTooLargeError(
            f"seed mismatch {r0:.6g} is not below 1/10 (attained at g={g})")
    v = v0
    trace = [(0, r0, 0.0)]
    iterations = 0
    if trace[0][1] > tol:
        for it in range(1, max_iter + 1):
            v = one_step_cobound(w, np.array(v))
            iterations = it
            r, _ = mismatch(w, v)
            trace.append((it, r, operator_norm(v - v0)))
            if r <= tol:
                break
        else:
            raise ConvergenceError(
                f"mismatch still {trace[-1][1]:.3e} after {max_iter} iterations",
                trace)
    return SimpleNamespace(iterations=iterations, trace=trace, last=v)


tolerances = st.sampled_from([1e-12, 1e-300])
caps = st.sampled_from([0, 1, 2, 64])


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(GROUP_SPECS), st.integers(1, 4),
       st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.02), tolerances, caps)
def test_correct_to_rep_trace_matches_its_loop(seed, spec, dim, magnitude, tol,
                                               max_iter):
    group, _, vals = family(seed, spec, dim, magnitude, False)
    rep = ApproxRep(group, vals)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repcorrect, "ITERATION_CAP", max_iter)
        got = outcome(lambda: correct_to_rep(rep, tol=tol))
    want = outcome(lambda: reference_correct_to_rep(rep, tol, max_iter))
    assert got[:2] == want[:2]
    if len(got) == 3:
        assert np.array_equal(got[2].last.values, want[2].last.values)


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(GROUP_SPECS), st.integers(1, 4),
       st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.02), tolerances, caps)
def test_trivialize_trace_matches_its_loop(seed, spec, dim, magnitude, tol,
                                           max_iter):
    rng = trial_rng(seed, 0)
    group = make_group(spec["kind"], spec["params"])
    alg = matrix_algebra(dim, group, list(exact_rep_values(spec, group, dim, rng)))
    v = random_unitary(rng, dim)
    w = coboundary(alg, v)
    v0 = v @ expm(magnitude * random_skew(rng, dim))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repcorrect, "ITERATION_CAP", max_iter)
        got = outcome(lambda: trivialize(w, v0, tol=tol))
    want = outcome(lambda: reference_trivialize(w, v0, tol, max_iter))
    assert got[:2] == want[:2]
    if len(got) == 3:
        assert np.array_equal(got[2].last, want[2].last)


def cocycle_case(seed=11, magnitude=0.02):
    spec = {"kind": "cyclic", "params": 3}
    rng = trial_rng(seed, 0)
    group = make_group(spec["kind"], spec["params"])
    alg = matrix_algebra(3, group, list(exact_rep_values(spec, group, 3, rng)))
    v = random_unitary(rng, 3)
    return coboundary(alg, v), v @ expm(magnitude * random_skew(rng, 3)), rng


def test_one_iteration_cap_raises_with_the_first_step_traced(monkeypatch):
    w, v0, _ = cocycle_case()
    group, _, vals = family(12, {"kind": "cyclic", "params": 3}, 3, 0.02, False)
    runs = [(lambda: correct_to_rep(ApproxRep(group, vals), tol=1e-300),
             lambda: reference_correct_to_rep(ApproxRep(group, vals), 1e-300, 1),
             "defect"),
            (lambda: trivialize(w, v0, tol=1e-300),
             lambda: reference_trivialize(w, v0, 1e-300, 1), "mismatch")]
    monkeypatch.setattr(repcorrect, "ITERATION_CAP", 1)
    for run, reference, what in runs:
        with pytest.raises(ConvergenceError,
                           match=f"{what} still .* after 1 iterations") as got:
            run()
        with pytest.raises(ConvergenceError) as want:
            reference()
        assert str(got.value) == str(want.value)
        assert got.value.trace == want.value.trace and len(got.value.trace) == 2


def test_corrector_measures_the_drift_from_the_input(monkeypatch):
    # Z/2 in blocks of sizes 2 and 1, pinned on the first, whose defect is
    # 2t; a step that returns an exact representation, -1 on g = 1 in both
    # blocks.  At tol >= 2t the pinned block is split off and comes back
    # unchanged; below it every block steps, and the drift compares the
    # last iterate's pinned block with the input's, not with its own.
    t, s = 1e-14, 0.01
    group = make_group("cyclic", 2)
    tower = Tower(algebra=trivial_algebra((2, 1), group),
                  ideals=(frozenset(), frozenset({1})))
    values = Blocks((np.array([1.0, -np.exp(1j * s)]).reshape(2, 1, 1, 1),
                     np.stack([np.eye(2), np.diag([1.0, np.exp(1j * t)])])[:, None]))
    exact = Blocks((np.array([1.0, -1.0]).reshape(2, 1, 1, 1),
                    np.stack([np.eye(2), np.diag([1.0, -1.0])])[:, None]))
    monkeypatch.setattr(repcorrect, "one_step", lambda rep: ApproxRep(
        group, exact if isinstance(rep.values, Blocks) else exact.parts[0][:, 0]))
    rep = ApproxRep(group, values)
    kept = rep.values.parts[1]
    for tol, drift in ((1e-12, 0.0), (1e-14, 2.0)):
        result = correct_to_rep(rep, tol=tol, pin=(tower, 0))
        assert result.iterations == 1 and result.quotient_drift == drift
        assert np.array_equal(result.last.values.parts[0], exact.parts[0])
        assert np.array_equal(result.last.values.parts[1],
                              kept if drift == 0.0 else exact.parts[1])


def test_trivialize_measures_each_iterate_once(monkeypatch):
    measured = []

    def counted(w, v):
        measured.append(v)
        return mismatch(w, v)

    monkeypatch.setattr(cocycles, "mismatch", counted)
    w, v0, _ = cocycle_case()
    result = trivialize(w, v0, tol=1e-12)
    assert result.iterations >= 2
    assert len(measured) == result.iterations + 1
    assert len({id(v) for v in measured}) == len(measured)
    # Outside trivialize nothing is cached: the cocycle holds no iterate,
    # and every step measures its input.
    assert set(vars(w)) == {"group", "values", "unitary", "unital", "act", "_defect"}
    measured.clear()
    one_step_cobound(w, v0)
    one_step_cobound(w, v0)
    assert len(measured) == 2


def test_cached_mismatch_still_gates_the_step():
    w, v0, rng = cocycle_case()
    far = v0 @ expm(1.5 * random_skew(rng, 3))
    measured = mismatch(w, far)        # as trivialize passes its iterate's
    assert measured[0] > 1 / 5
    with pytest.raises(DefectTooLargeError, match="exceeds 1/5"):
        _cobound_step(w, far, measured)
    with pytest.raises(DefectTooLargeError, match="exceeds 1/5"):
        one_step_cobound(w, far)
    with pytest.raises(DefectTooLargeError, match="not below 1/10"):
        trivialize(w, far, tol=1e-12)


# --- stacked group averages and the partition-defect kernel ------------------

def reference_symmetrize(values, act, source_action):
    """avg_g gamma_g(psi(alpha_{g^-1}(u_x))), one term per (x, g)."""
    G, H = source_action.group, source_action.source
    out = np.zeros_like(values)
    for x in range(H.order):
        terms = []
        for g in range(G.order):
            ginv = G.inv[g]
            c = source_action.scalar[ginv, x]
            terms.append(act(g, c * values[source_action.perm[ginv, x]]))
        out[x] = np.mean(terms, axis=0)
    return out


@settings(max_examples=20, deadline=None)
@given(seeds, st.sampled_from(["translation", "inversion"]), st.integers(2, 5),
       st.floats(0.0, 0.3))
def test_stacked_symmetrize_matches_per_pair_loop(seed, model, order, noise):
    s = Scenario(kind="lift", seed=seed, source={"model": model, "order": order},
                 tower={"levels": 3, "base": 0.2, "ratio": 0.2})
    rng = trial_rng(seed, 0)
    tower, source_action, lift_seed = build_lift_scenario(s, rng)
    blocks = tower.algebra.blocks
    act = dense_act(tower.algebra)
    for level in range(tower.top + 1):
        live = [j for j in range(len(blocks)) if j not in tower.ideals[level]]
        vals = tower.project(level, 0, lift_seed.values)
        vals = vals + noise * vals.map(lambda p: rng.standard_normal(p.shape))
        got = symmetrize(vals, tower.level(level).act, source_action)
        want = reference_symmetrize(embed(blocks, vals, live), act, source_action)
        assert np.max(operator_norm(embed(blocks, got, live) - want)) <= 1e-12


def reference_partition_defects(algebra, fam, unit):
    """The five partition defects, one norm per element or pair."""
    G = algebra.group
    d = G.order
    return (max(operator_norm(fam[g] @ fam[g] - fam[g]) for g in range(d)),
            max(operator_norm(fam[g] - fam[g].conj().T) for g in range(d)),
            max((operator_norm(fam[g] @ fam[h])
                 for g in range(d) for h in range(d) if g != h), default=0.0),
            max(operator_norm(algebra.act(g, fam[h]) - fam[G.mult[g, h]])
                for g in range(d) for h in range(d)),
            operator_norm(fam.sum(axis=0) - unit))


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 5), st.integers(1, 3), st.integers(0, 2),
       st.sampled_from([0.0, 0.02]) | st.floats(0.0, 0.2), st.floats(0.0, 0.1))
def test_partition_defects_match_per_pair_loop(seed, d, block, corank, magnitude,
                                               noise):
    rng = trial_rng(seed, 0)
    algebra, exact, fam = build_rokhlin_scenario(d, block, magnitude, rng, corank)
    fam = fam + noise * np.stack([random_hermitian(rng, algebra.dim)
                                  for _ in range(d)])
    q = exact.sum(axis=0)
    for unit in (None, q):
        got = tuple(measure_partition_seeds(algebra, fam, unit).values())
        want = reference_partition_defects(
            algebra, fam, np.eye(algebra.dim) if unit is None else unit)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
    G = algebra.group
    averaged = np.stack([
        sum(algebra.act(h, fam[G.mult[G.inv[h], g]]) for h in range(d)) / d
        for g in range(d)])
    averaged = (averaged + averaged.conj().transpose(0, 2, 1)) / 2
    assert np.max(operator_norm(_averaged_seeds(algebra, fam) - averaged)) <= 1e-12


# --- one-step figures read off the corrector's trace -------------------------

@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(["rep", "cocycle"]), st.sampled_from(GROUP_SPECS),
       st.integers(2, 4), st.booleans(),
       st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.02))
def test_one_step_figures_match_an_explicit_step(seed, kind, spec, dim, tower,
                                                 magnitude):
    s = Scenario(kind=kind, seed=seed, group=spec, dimension=dim,
                 magnitude=magnitude, trials=1,
                 tower={"levels": 2} if tower else None)
    corrector = scenarios.correct_to_rep if kind == "rep" else scenarios.trivialize
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs["pin"], corrector(*args, **kwargs)))
        return calls[-1][-1]

    with mock.patch.object(scenarios, corrector.__name__, spy):
        measured = scenarios.TRIAL_RUNNERS[kind](s, 0).measured
    [(args, pin, result)] = calls
    # A tower trial's trace steps the blocks outside the pinned quotient,
    # which is measured once; an input already within tolerance is stepped
    # whole by the trial itself.
    frozen, split = 0.0, None
    if pin is not None and result.iterations:
        algebra, keep = pin[0].level(0), pin[0].kept(pin[0].top, 0)
        split = lambda a: algebra.split(a, keep)[0]
    if kind == "rep":
        rep, = args
        moving = rep
        if split is not None:
            frozen = max_pair_defect(pin[0].project(1, 0, rep.values), rep.group.mult)[0]
            moving = ApproxRep(rep.group, split(rep.values))
        stepped = one_step(moving)
        want = {"one_step_defect": max(stepped.defect(), frozen),
                "one_step_distance": moving.distance_to(stepped),
                "final_distance": rep.distance_to(result.last)}
    else:
        w, v0 = args
        w_moving, v0_moving = w, v0
        if split is not None:
            frozen = mismatch(cocycle(pin[0].level(1), pin[0].project(1, 0, w.values)),
                              pin[0].project(1, 0, v0))[0]
            w_moving = cocycle(algebra.restrict([0]), split(w.values))
            v0_moving = split(v0)
        z = one_step_cobound(w_moving, v0_moving)
        want = {"r": mismatch(w, v0)[0],
                "one_step_mismatch": max(mismatch(w_moving, z)[0], frozen),
                "one_step_distance": operator_norm(z - v0_moving),
                "final_distance": operator_norm(result.last - v0)}
    assert {k: measured[k] for k in want} == want


# --- unitarization against the per-value loop --------------------------------

def reference_unitarize(values, eps):
    """Polar parts one value at a time, or the first value farther than eps
    from the unitaries and its distance."""
    out = np.empty_like(values)
    for i, a in enumerate(values):
        dist = float(np.max(np.abs(np.linalg.svd(a, compute_uv=False) - 1.0)))
        if dist >= eps:
            return i, dist
        out[i] = polar_unitary(a)
    return None, out


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 6), st.integers(1, 5),
       st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6))
def test_unitarize_values_matches_per_value_loop(seed, count, n, scales):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    noise *= (UNITARIZE_EPS * np.array(scales[:count]) /
              operator_norm(noise))[:, None, None]
    values = np.stack([random_unitary(rng, n) for _ in range(count)]) + noise
    bad, want = reference_unitarize(values, UNITARIZE_EPS)
    if bad is None:
        assert np.max(operator_norm(unitarize_values(values) - want)) <= 1e-14
    else:
        with pytest.raises(DefectTooLargeError, match=f"value {bad} is at "
                                                      f"distance {want:.6g} "):
            unitarize_values(values)
