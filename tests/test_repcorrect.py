import numpy as np
import pytest

from equifix.groups import cyclic_group, make_group
from equifix.galgebra import GHom, Tower, trivial_action_algebra
from equifix.matfun import Blocks, identity_like, operator_norm
from equifix.repcorrect import (ApproxRep, DefectTooLargeError,
                                LiftError, SourceAction, correct_to_rep,
                                equivariance_defect, intertwiner, lift_group_rep,
                                one_step, symmetrize, translation_source_action,
                                unitarize_values)
from equifix.scenarios import (Scenario, build_lift_scenario, exact_rep_values,
                               perturb_rep_values, random_skew, random_unitary,
                               trial_rng)


def defect_oracle(group, values):
    """Brute-force pair maximum, written independently of the einsum path."""
    worst = 0.0
    for g in range(group.order):
        for h in range(group.order):
            worst = max(worst, operator_norm(values[group.mul(g, h)] -
                                             values[g] @ values[h]))
    return worst


def make_perturbed(spec, dim, magnitude, seed):
    rng = trial_rng(seed, 0)
    group = make_group(spec["kind"], spec.get("params"))
    exact = exact_rep_values(spec, group, dim, rng)
    vals = perturb_rep_values(exact, magnitude, rng)
    return group, exact, vals


def test_defect_of_exact_rep():
    group, exact, _ = make_perturbed({"kind": "dihedral", "params": 4}, 4, 0.0, 0)
    assert ApproxRep(group, exact).defect() <= 1e-12


def test_defect_scalar_z2():
    g = cyclic_group(2)
    for theta in (0.1, 0.7, 2.0):
        vals = np.stack([np.eye(1, dtype=complex),
                         np.array([[np.exp(1j * theta)]])])
        rep = ApproxRep(g, vals)
        assert rep.defect() == pytest.approx(2 * abs(np.sin(theta)), abs=1e-12)


def test_defect_matches_bruteforce_oracle():
    group, _, vals = make_perturbed({"kind": "symmetric", "params": 3}, 5, 0.03, 1)
    rep = ApproxRep(group, vals)
    assert rep.defect() == pytest.approx(defect_oracle(group, vals), abs=1e-13)


def test_one_step_fixed_point_on_exact():
    group, exact, _ = make_perturbed({"kind": "cyclic", "params": 5}, 4, 0.0, 2)
    rep = ApproxRep(group, exact)
    out = one_step(rep)
    assert rep.distance_to(out) <= 1e-12


def test_one_step_paper_bounds():
    for seed, spec, dim, mag in [
        (3, {"kind": "cyclic", "params": 3}, 3, 0.02),
        (4, {"kind": "dihedral", "params": 4}, 4, 0.04),
        (5, {"kind": "symmetric", "params": 3}, 4, 0.01),
    ]:
        group, _, vals = make_perturbed(spec, dim, mag, seed)
        rep = ApproxRep(group, vals)
        r = rep.defect()
        out = one_step(rep)
        assert out.defect() <= 17 * r ** 2 + 1e-11
        assert rep.distance_to(out) <= 2 * r + 1e-11


def test_one_step_conjugation_covariance():
    group, _, vals = make_perturbed({"kind": "cyclic", "params": 4}, 4, 0.03, 6)
    rng = trial_rng(7, 0)
    v = random_unitary(rng, 4)
    rep = ApproxRep(group, vals)
    lhs = one_step(rep.conjugate(v))
    rhs = one_step(rep).conjugate(v)
    assert lhs.distance_to(rhs) <= 1e-11


def test_one_step_rejects_large_defect():
    g = cyclic_group(2)
    vals = np.stack([np.eye(1, dtype=complex), np.array([[np.exp(0.9j)]])])
    rep = ApproxRep(g, vals)
    assert rep.defect() > 1 / 5
    with pytest.raises(DefectTooLargeError, match="pair"):
        one_step(rep)


def test_correct_exact_input_zero_iterations():
    group, exact, _ = make_perturbed({"kind": "cyclic", "params": 4}, 3, 0.0, 8)
    res = correct_to_rep(ApproxRep(group, exact))
    assert res.iterations == 0
    assert res.rep.distance_to(ApproxRep(group, exact)) == 0.0


def test_correct_distance_bound_and_cascade():
    group, _, vals = make_perturbed({"kind": "dihedral", "params": 3}, 4, 0.02, 9)
    rep = ApproxRep(group, vals)
    r = rep.defect()
    res = correct_to_rep(rep)
    assert res.rep.defect() <= 1e-12
    assert rep.distance_to(res.rep) <= 2 * r / (1 - 17 * r) + 1e-10
    # squaring cascade: defect after m steps <= r (17 r)^m + slack
    for m, defect, _ in res.trace:
        assert defect <= r * (17 * r) ** m + 1e-10 * max(m, 1)


def test_correct_rejects_defect_at_seventeenth():
    g = cyclic_group(2)
    theta = 0.2
    vals = np.stack([np.eye(1, dtype=complex), np.array([[np.exp(1j * theta)]])])
    rep = ApproxRep(g, vals)
    assert rep.defect() > 1 / 17
    with pytest.raises(DefectTooLargeError):
        correct_to_rep(rep)


def test_correct_quotient_pinned():
    s = Scenario(kind="rep", seed=10, group={"kind": "cyclic", "params": 4},
                 dimension=3, magnitude=0.02, trials=1, tower={"levels": 2})
    rng = trial_rng(s.seed, 0)
    group = make_group("cyclic", 4)
    dim = 3
    algebra = trivial_action_algebra((dim, dim), group)
    tower = Tower(algebra=algebra, ideals=(frozenset(), frozenset({0})))
    base = exact_rep_values(s.group, group, dim, rng)
    moved = perturb_rep_values(base, 0.02, rng)       # the block the quotient kills
    rep = ApproxRep(group, Blocks((np.stack([moved, base], axis=1),)))
    quotient = lambda a: tower.project_to_top(0, a)
    res = correct_to_rep(rep, quotient=quotient)
    assert res.quotient_drift <= 1e-12
    assert res.rep.defect() <= 1e-12


def test_correct_quotient_requires_exact_downstairs():
    group, _, vals = make_perturbed({"kind": "cyclic", "params": 3}, 4, 0.02, 11)
    rep = ApproxRep(group, vals)
    with pytest.raises(DefectTooLargeError, match="quotient"):
        correct_to_rep(rep, quotient=lambda a: a)   # identity quotient: not exact


# --- symmetrize / unitarize ---------------------------------------------------

def translation_setup(d, seed, stage_noise):
    """Single-stage translation model with a conjugated exact rep."""
    from scipy.linalg import expm
    rng = trial_rng(seed, 0)
    G = cyclic_group(d)
    H = cyclic_group(d)
    action = translation_source_action(d, G, H)
    zeta = np.exp(2j * np.pi / d)
    dmat = np.diag(zeta ** (-np.arange(d)))
    act = lambda g, a: np.linalg.matrix_power(dmat, g) @ a @ \
        np.linalg.matrix_power(dmat, g).conj().T
    shift = np.roll(np.eye(d), 1, axis=0).astype(complex)
    stage = np.stack([np.linalg.matrix_power(shift, k) for k in range(d)])
    q = expm(stage_noise * random_skew(rng, d))
    values = np.stack([q @ stage[k] @ q.conj().T for k in range(d)])
    return G, H, action, act, values, stage


def test_symmetrize_fixes_equivariant_input():
    G, H, action, act, _, stage = translation_setup(3, 12, 0.0)
    out = symmetrize(stage, act, action)
    assert max(operator_norm(out[x] - stage[x]) for x in range(3)) <= 1e-13


def test_symmetrize_trivial_action_invariance():
    g = cyclic_group(3)
    h = cyclic_group(2)
    action = SourceAction(group=g, source=h, perm=np.tile(np.arange(2), (3, 1)),
                          scalar=np.ones((3, 2), dtype=complex))
    rng = trial_rng(13, 0)
    v = random_unitary(rng, 3)
    u = v @ np.diag(np.exp(2j * np.pi * np.array([0, 1, 2]) / 3)) @ v.conj().T
    act = lambda k, a: np.linalg.matrix_power(u, k) @ a @ \
        np.linalg.matrix_power(u, k).conj().T
    vals = np.stack([np.eye(3, dtype=complex), random_unitary(rng, 3)])
    out = symmetrize(vals, act, action)
    for x in range(2):
        assert operator_norm(act(1, out[x]) - out[x]) <= 1e-12


def test_symmetrize_kills_equivariance_defect():
    G, H, action, act, values, _ = translation_setup(3, 14, 0.04)
    before = equivariance_defect(values, act, action)
    assert before > 1e-3
    out = symmetrize(values, act, action)
    after = equivariance_defect(out, act, action)
    assert after <= 1e-12
    # displacement is controlled by the input defect
    assert max(operator_norm(out[x] - values[x]) for x in range(3)) <= before + 1e-12


def test_unitarize_values():
    rng = trial_rng(15, 0)
    u = np.stack([random_unitary(rng, 3) for _ in range(4)])
    out = unitarize_values(u)
    assert max(operator_norm(out[i] - u[i]) for i in range(4)) <= 1e-13
    scaled = np.stack([1.001 * m for m in u])
    out2 = unitarize_values(scaled)
    assert max(operator_norm(out2[i] - u[i]) for i in range(4)) <= 1e-12
    with pytest.raises(DefectTooLargeError):
        unitarize_values(np.stack([1.5 * np.eye(3, dtype=complex)]))


# --- intertwiner --------------------------------------------------------------

def test_intertwiner_identity_pair():
    group, exact, _ = make_perturbed({"kind": "cyclic", "params": 4}, 4, 0.0, 16)
    rep = ApproxRep(group, exact)
    u = intertwiner(rep, rep)
    assert operator_norm(u - np.eye(4)) <= 1e-12


def test_intertwiner_conjugated_pair():
    from scipy.linalg import expm
    group, exact, _ = make_perturbed({"kind": "dihedral", "params": 4}, 4, 0.0, 17)
    rng = trial_rng(18, 0)
    v = expm(0.2 * random_skew(rng, 4))
    rho = ApproxRep(group, exact)
    sigma = rho.conjugate(v)
    assert rho.distance_to(sigma) < 1.0
    u = intertwiner(rho, sigma)
    worst = max(operator_norm(u @ rho.values[g] @ u.conj().T - sigma.values[g])
                for g in range(group.order))
    assert worst <= 1e-11


def test_intertwiner_rejects_distant_pair():
    group = cyclic_group(2)
    rho = ApproxRep(group, np.stack([np.eye(2, dtype=complex),
                                     np.diag([1.0, -1.0]).astype(complex)]))
    sigma = ApproxRep(group, np.stack([np.eye(2, dtype=complex),
                                       np.diag([-1.0, 1.0]).astype(complex)]))
    assert rho.distance_to(sigma) >= 1.0
    with pytest.raises(DefectTooLargeError, match="distance"):
        intertwiner(rho, sigma)


def test_intertwiner_tower_quotient_is_one():
    from scipy.linalg import expm
    group = cyclic_group(3)
    dim = 3
    algebra = trivial_action_algebra((dim, dim), group)
    tower = Tower(algebra=algebra, ideals=(frozenset(), frozenset({0})))
    rng = trial_rng(20, 0)
    base = exact_rep_values({"kind": "cyclic", "params": 3}, group, dim, rng)
    v = expm(0.3 * random_skew(rng, dim))            # moves the killed block only
    rho = ApproxRep(group, Blocks((np.stack([base, base], axis=1),)))
    sigma = ApproxRep(group, Blocks((np.stack([v @ base @ v.conj().T, base],
                                              axis=1),)))
    quotient = lambda a: tower.project_to_top(0, a)
    u = intertwiner(rho, sigma, quotient=quotient)
    assert operator_norm(quotient(u) - quotient(identity_like(u))) <= 1e-11
    worst = np.max(operator_norm(u @ rho.values @ u.conj().swapaxes(-1, -2) -
                                 sigma.values))
    assert worst <= 1e-11


# --- lifting -------------------------------------------------------------------

def test_lift_exact_tower_returns_level_zero():
    s = Scenario(kind="lift", seed=21, group={"kind": "cyclic", "params": 3},
                 source={"model": "translation", "order": 3},
                 tower={"levels": 4, "base": 0.0, "ratio": 0.5}, trials=1)
    rng = trial_rng(s.seed, 0)
    tower, phi, action, seed = build_lift_scenario(s, rng)
    res = lift_group_rep(tower, phi, action, seed=seed)
    assert res.level == 0
    assert res.equivariance_residual <= 1e-11
    assert res.projection_residual <= 1e-11


def test_lift_decaying_tower_end_to_end():
    s = Scenario(kind="lift", seed=22, group={"kind": "cyclic", "params": 4},
                 source={"model": "translation", "order": 4},
                 tower={"levels": 8, "base": 0.2, "ratio": 0.2}, trials=1)
    rng = trial_rng(s.seed, 0)
    tower, phi, action, seed = build_lift_scenario(s, rng)
    res = lift_group_rep(tower, phi, action, seed=seed)
    assert 0 < res.level < tower.top
    final = GHom(action.source, res.rep.values, level=res.level)
    assert final.mult_defect() <= 1e-11
    assert res.equivariance_residual <= 1e-11
    assert res.projection_residual <= 1e-11
    # the per-level table is monotone in the measured equivariance defect
    eqs = [row.equivariance_defect for row in res.table]
    assert all(b <= a + 1e-12 for a, b in zip(eqs, eqs[1:]))


def test_lift_translation_covariance_realized():
    # the lifted generator z satisfies gamma_a(z) = zeta^-a z and z^d = 1
    d = 3
    s = Scenario(kind="lift", seed=23, group={"kind": "cyclic", "params": d},
                 source={"model": "translation", "order": d},
                 tower={"levels": 6, "base": 0.1, "ratio": 0.2}, trials=1)
    rng = trial_rng(s.seed, 0)
    tower, phi, action, seed = build_lift_scenario(s, rng)
    res = lift_group_rep(tower, phi, action, seed=seed)
    z = res.rep.values[1]
    zeta = np.exp(2j * np.pi / d)
    algebra = tower.level(res.level)
    for a in range(d):
        lhs = algebra.act(a, z)
        assert operator_norm(lhs - zeta ** (-a) * z) <= 1e-11
    z_d = z.map(lambda p: np.linalg.matrix_power(p, d))
    assert operator_norm(z_d - identity_like(z_d)) <= 1e-11


def test_lift_too_coarse_tower_fails_with_table():
    s = Scenario(kind="lift", seed=24, group={"kind": "cyclic", "params": 3},
                 source={"model": "translation", "order": 3},
                 tower={"levels": 3, "base": 0.4, "ratio": 0.9}, trials=1)
    rng = trial_rng(s.seed, 0)
    tower, phi, action, seed = build_lift_scenario(s, rng)
    with pytest.raises(LiftError) as err:
        lift_group_rep(tower, phi, action, seed=seed)
    assert len(err.value.table) == tower.top


def test_lift_rejects_inexact_phi():
    s = Scenario(kind="lift", seed=25, group={"kind": "cyclic", "params": 3},
                 source={"model": "translation", "order": 3},
                 tower={"levels": 4, "base": 0.1, "ratio": 0.2}, trials=1)
    rng = trial_rng(s.seed, 0)
    tower, phi, action, seed = build_lift_scenario(s, rng)
    bad = phi.values.copy()
    bad.parts[0][1] *= np.exp(0.2j)
    with pytest.raises(DefectTooLargeError):
        lift_group_rep(tower, GHom(action.source, bad, level=tower.top),
                       action, seed=seed)


def test_source_action_validation():
    g = cyclic_group(2)
    h = cyclic_group(3)
    perm = np.stack([np.arange(3), np.array([0, 2, 1])])
    scalar = np.ones((2, 3), dtype=complex)
    SourceAction(group=g, source=h, perm=perm, scalar=scalar)  # inversion: ok
    bad_perm = np.stack([np.arange(3), np.array([1, 0, 2])])   # not an automorphism
    with pytest.raises(ValueError):
        SourceAction(group=g, source=h, perm=bad_perm, scalar=scalar)
