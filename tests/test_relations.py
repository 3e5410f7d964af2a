import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense_reference
from dense_reference import (operator_norm, reference_stabilize_partition,
                             reference_stabilize_tracial_partition,
                             schur_round_unitary)
from equifix import relations
from equifix.groups import cyclic_group
from equifix.galgebra import matrix_algebra
from equifix.matfun import _polar_parts, largest_norm, spectral_round_unitary
from equifix.relations import (measure_partition_seeds,
                               partition_admissibility_threshold,
                               stabilize_partition, stabilize_tracial_partition)
from equifix.repcorrect import DefectTooLargeError
from equifix.scenarios import (SUITE, Scenario, build_rokhlin_scenario,
                               random_unitary, run_rokhlin_trial,
                               run_tracial_trial, trial_rng)


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
    alg = matrix_algebra(2, g, [np.eye(2)] * g.order)
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
    assert d["projection"] <= 1e-12          # conjugated projections stay exact
    assert d["self_adjoint"] <= 1e-12
    assert 0 < max(d.values()) < 0.3


# --- the edges of the admitted set ---------------------------------------------

def with_spectrum(rng, args):
    v = random_unitary(rng, len(args))
    return (v * np.exp(1j * np.asarray(args))) @ v.conj().T


def rounded_as_encoded(monkeypatch, w, d):
    """stabilize_partition on exact seeds of Z/d on M_n (n = len(w)), with
    its encoded unitary, the polar step's output, replaced by w.  The
    reference route, so encoded, gives the same projections to 1e-12 or
    raises an error of the same class and message."""
    algebra, exact, _ = build_rokhlin_scenario(d, len(w) // d, 0.0, trial_rng(0, 0))
    monkeypatch.setattr(relations, "_polar_parts", lambda a: (w, _polar_parts(a)[1]))
    monkeypatch.setattr(dense_reference, "polar_unitary", lambda a: w)
    try:
        want = reference_stabilize_partition(algebra, exact)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            stabilize_partition(algebra, exact)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        raise raised.value
    res = stabilize_partition(algebra, exact)
    assert largest_norm(res.projections - want.projections)[0] <= 1e-12
    return res


def half_gap_message(margin, d):
    return (f"spectrum of the encoded unitary strays {np.pi / d - margin:.6g} rad "
            f"from the d-th roots, beyond the admissible margin {np.pi / (2 * d):.6g}")


@pytest.mark.parametrize("d", range(1, 7))
def test_rounding_at_the_edges_of_the_admitted_set(monkeypatch, d):
    # One argument 1e-9 inside or outside each edge, pi/(2d) either side of
    # each root, the rest well inside: inside, the rounding is the Schur
    # reference's; outside, the half-gap check refuses it as before.
    rng = np.random.default_rng(d)
    half_gap = np.pi / (2 * d)
    for k, side in itertools.product(range(d), (-1, 1)):
        edge = 2 * np.pi * k / d + side * half_gap
        rest = 2 * np.pi * rng.integers(0, d, size=2 * d - 1) / d + \
            rng.uniform(-0.5, 0.5, size=2 * d - 1) * half_gap
        inside = with_spectrum(rng, np.append(edge - side * 1e-9, rest))
        z_ref, ks_ref, margin_ref, projections = schur_round_unitary(inside, d)
        z, _, ks, margin = spectral_round_unitary(inside, d)
        assert operator_norm(z - z_ref) <= 1e-12
        assert np.array_equal(np.sort(ks), np.sort(ks_ref))
        assert abs(margin - margin_ref) <= 1e-14
        res = rounded_as_encoded(monkeypatch, inside, d)
        assert largest_norm(res.projections - projections)[0] <= 1e-12

        outside = with_spectrum(rng, np.append(edge + side * 1e-9, rest))
        with pytest.raises(DefectTooLargeError) as refused:
            rounded_as_encoded(monkeypatch, outside, d)
        assert str(refused.value) == \
            half_gap_message(schur_round_unitary(outside, d)[2], d)


@pytest.mark.parametrize("d", range(2, 7))
def test_residual_refusal_is_a_defect_too_large(monkeypatch, d):
    # A pair 1e-9 either side of the left edge of root 0, mirrored about
    # pi/(2d): one cosine after the rotation, which the residual gate
    # refuses.  The outer one fails the half-gap check in the reference.
    half_gap = np.pi / (2 * d)
    rng = np.random.default_rng(d)
    rest = 2 * np.pi * rng.integers(0, d, size=2 * d - 2) / d + \
        rng.uniform(-0.5, 0.5, size=2 * d - 2) * half_gap
    args = np.append([-half_gap + 1e-9, 3 * half_gap - 1e-9], rest)
    w = with_spectrum(rng, args)
    assert schur_round_unitary(w, d)[2] <= half_gap
    with pytest.raises(DefectTooLargeError, match="residual"):
        rounded_as_encoded(monkeypatch, w, d)


def test_an_argument_on_the_edge_is_refused(monkeypatch):
    # Argument exactly pi/4 for d = 2, so margin == pi/(2d) in floating
    # point: the edge, where the rotated cosine is no longer one-to-one, is
    # not admitted.
    w = np.diag([(1 + 1j) / np.sqrt(2), 1, -1, 1]).astype(complex)
    assert spectral_round_unitary(w, 2)[3] == np.pi / 4
    with pytest.raises(DefectTooLargeError) as refused:
        rounded_as_encoded(monkeypatch, w, 2)
    assert str(refused.value) == half_gap_message(np.pi / 4, 2)


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


@pytest.mark.parametrize("run", [run_rokhlin_trial, run_tracial_trial],
                         ids=["rokhlin", "tracial"])
def test_partition_trials_average_once_and_measure_two_families(monkeypatch, run):
    # One group average and one seed defect, both of the full seeds, and
    # the output by name: the rounding takes the averaged family as it is,
    # and the tracial corrector neither averages nor measures its corner
    # seeds again.
    calls = []
    for name in ("partition_defect", "group_mean", "measure_partition_seeds"):
        real = getattr(relations, name)
        monkeypatch.setattr(relations, name, lambda *args, name=name, real=real:
                            calls.append((name, args[1].shape)) or real(*args))
    kind = "rokhlin" if run is run_rokhlin_trial else "tracial"
    report = run(Scenario.from_dict(SUITE[kind][1], seed=0), 0)
    assert report.all_passed()
    n = {"rokhlin": 6, "tracial": 5}[kind]
    d = SUITE[kind][1]["group"]["params"]
    assert calls == [(name, (d, n, n)) for name in
                     ("partition_defect", "group_mean", "measure_partition_seeds")]


def assert_matches_reference(got, want):
    """Two partition corrections agree: projections within 1e-12, the same
    residual names, each residual at most 1e-12, and the same certificate
    keys."""
    assert largest_norm(got.projections - want.projections)[0] <= 1e-12
    assert list(got.residuals) == list(want.residuals)
    assert max(got.residuals.values()) <= 1e-12
    assert max(want.residuals.values()) <= 1e-12
    assert list(got.certificate) == list(want.certificate)


def outcome(corrector, *args):
    """A correction, or the class and message of the error it raised."""
    try:
        return corrector(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 16))
def test_partition_correctors_match_the_reference_route(d, block, corank,
                                                        magnitude, seed):
    # The reference averages the seeds again in the rounding, takes the
    # covariance average of w0 and, for the tracial corrector, measures
    # the corner seeds: the outputs agree, and a refusal is refused alike.
    # The plain corrector's refusal says the same; the tracial one's
    # certificate opens with the full seeds' defect rather than the
    # corner's, which its message may quote.
    rng = trial_rng(seed, 0)
    algebra, _, seeds = build_rokhlin_scenario(d, block, magnitude, rng, corank)
    n = algebra.dim
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    witness = y @ y.conj().T
    witness /= operator_norm(witness)
    plain = (outcome(stabilize_partition, algebra, seeds),
             outcome(reference_stabilize_partition, algebra, seeds))
    tracial = (outcome(stabilize_tracial_partition, algebra, seeds, witness),
               outcome(reference_stabilize_tracial_partition, algebra, seeds,
                       witness))
    for (got, want), same_message in ((plain, True), (tracial, False)):
        if isinstance(want, tuple):
            assert isinstance(got, tuple) and got[0] is want[0]
            assert got == want or not same_message
            continue
        assert not isinstance(got, tuple), got
        assert_matches_reference(got, want)
        assert got.seed_defect == want.seed_defect == got.certificate["seed_defect"]
