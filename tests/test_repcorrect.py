import numpy as np
import pytest

from dense_reference import (assert_readout, operator_norm, trivial_algebra,
                             unitarize_values)
from equifix import repcorrect
from equifix.groups import cyclic_group, make_group
from equifix.cocycles import coboundary
from equifix.galgebra import GAlgebra, Tower, matrix_algebra
from equifix.matfun import Blocks, adjoint, exp_skew, identity_like, largest_norm
from equifix.repcorrect import (LEVEL_ACCEPT_THRESHOLD, ApproxRep,
                                DefectTooLargeError, LevelReport, LiftError,
                                SourceAction, correct_to_rep,
                                equivariance_defect, intertwiner, lift_group_rep,
                                one_step, symmetrize, translation_source_action)
from equifix.scenarios import (Scenario, build_lift_scenario, exact_rep_values,
                               perturb_rep_values, random_skew, random_unitary,
                               trial_rng)


def defect_oracle(group, values):
    """Brute-force pair maximum, written independently of the einsum path."""
    worst = 0.0
    for g in range(group.order):
        for h in range(group.order):
            worst = max(worst, operator_norm(values[group.mult[g, h]] -
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
    lhs = one_step(ApproxRep(group, v @ vals @ v.conj().T))
    rhs = ApproxRep(group, v @ one_step(rep).values @ v.conj().T)
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
    res = correct_to_rep(ApproxRep(group, exact), tol=1e-12)
    assert res.iterations == 0
    assert res.last.distance_to(ApproxRep(group, exact)) == 0.0


def test_correct_distance_bound_and_cascade():
    group, _, vals = make_perturbed({"kind": "dihedral", "params": 3}, 4, 0.02, 9)
    rep = ApproxRep(group, vals)
    r = rep.defect()
    res = correct_to_rep(rep, tol=1e-12)
    assert res.last.defect() <= 1e-12
    assert rep.distance_to(res.last) <= 2 * r / (1 - 17 * r) + 1e-10
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
        correct_to_rep(rep, tol=1e-12)


def test_correct_quotient_pinned():
    s = Scenario(kind="rep", seed=10, group={"kind": "cyclic", "params": 4},
                 dimension=3, magnitude=0.02, trials=1, tower={"levels": 2})
    rng = trial_rng(s.seed, 0)
    group = make_group("cyclic", 4)
    dim = 3
    algebra = trivial_algebra((dim, dim), group)
    tower = Tower(algebra=algebra, ideals=(frozenset(), frozenset({0})))
    base = exact_rep_values(s.group, group, dim, rng)
    moved = perturb_rep_values(base, 0.02, rng)       # the block the quotient kills
    rep = ApproxRep(group, Blocks((np.stack([moved, base], axis=1),)))
    res = correct_to_rep(rep, tol=1e-12, pin=(tower, 0))
    assert res.quotient_drift == 0.0
    assert res.last.defect() <= 1e-12


def test_correct_quotient_requires_exact_downstairs():
    group, _, vals = make_perturbed({"kind": "cyclic", "params": 3}, 4, 0.02, 11)
    rep = ApproxRep(group, vals)
    # A one-level tower: its top quotient is the identity, not exact.
    tower = Tower(algebra=trivial_algebra((4,), group), ideals=(frozenset(),))
    with pytest.raises(DefectTooLargeError, match="quotient"):
        correct_to_rep(rep, tol=1e-12, pin=(tower, 0))


def test_correctors_refuse_a_cocycle():
    """A coboundary on cyclic(3) at dim 3 is an exact cocycle (twisted
    defect 2e-15) whose untwisted pair defect is 0.63: read as a
    representation, correct_to_rep would return it after 0 iterations."""
    group = cyclic_group(3)
    rng = trial_rng(0, 0)
    exact = exact_rep_values({"kind": "cyclic", "params": 3}, group, 3, rng)
    w = coboundary(matrix_algebra(3, group, list(exact)), random_unitary(rng, 3))
    assert w.defect() <= 1e-14
    assert defect_oracle(group, w.values) > 0.6
    rep = ApproxRep(group, exact)
    for call in (lambda: one_step(w), lambda: correct_to_rep(w, tol=1e-12),
                 lambda: intertwiner(w, rep), lambda: intertwiner(rep, w)):
        with pytest.raises(ValueError, match="not a cocycle"):
            call()


# --- symmetrize / unitarize ---------------------------------------------------

def translation_setup(d, seed, stage_noise):
    """Single-stage translation model with a conjugated exact rep."""
    from scipy.linalg import expm
    rng = trial_rng(seed, 0)
    action = translation_source_action(d)
    G, H = action.group, action.source
    zeta = np.exp(2j * np.pi / d)
    dmat = np.diag(zeta ** (-np.arange(d)))
    act = matrix_algebra(d, G, [np.linalg.matrix_power(dmat, g) for g in range(d)]).act
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
    # act takes an index array k broadcast against the stack, as
    # GAlgebra.act does.
    us = np.stack([np.linalg.matrix_power(u, k) for k in range(3)])
    act = lambda k, a: us[k] @ a @ us[k].conj().swapaxes(-1, -2)
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
    sigma = ApproxRep(group, v @ exact @ v.conj().T)
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
    algebra = trivial_algebra((dim, dim), group)
    tower = Tower(algebra=algebra, ideals=(frozenset(), frozenset({0})))
    rng = trial_rng(20, 0)
    base = exact_rep_values({"kind": "cyclic", "params": 3}, group, dim, rng)
    v = expm(0.3 * random_skew(rng, dim))            # moves the killed block only
    rho = ApproxRep(group, Blocks((np.stack([base, base], axis=1),)))
    sigma = ApproxRep(group, Blocks((np.stack([v @ base @ v.conj().T, base],
                                              axis=1),)))
    u = intertwiner(rho, sigma)
    assert operator_norm(tower.project(tower.top, 0, u - identity_like(u))) <= 1e-11
    worst = np.max(operator_norm(u @ rho.values @ u.conj().swapaxes(-1, -2) -
                                 sigma.values))
    assert worst <= 1e-11


# --- lifting -------------------------------------------------------------------

def test_lift_exact_tower_returns_level_zero():
    s = Scenario(kind="lift", seed=21, group={"kind": "cyclic", "params": 3},
                 source={"model": "translation", "order": 3},
                 tower={"levels": 4, "base": 0.0, "ratio": 0.5}, trials=1)
    rng = trial_rng(s.seed, 0)
    tower, action, seed = build_lift_scenario(s, rng)
    res = lift_group_rep(tower, action, seed, tol=1e-12)
    assert res.level == 0
    assert res.equivariance_residual <= 1e-11
    assert res.projection_residual <= 1e-11


def test_lift_decaying_tower_end_to_end():
    s = Scenario(kind="lift", seed=22, group={"kind": "cyclic", "params": 4},
                 source={"model": "translation", "order": 4},
                 tower={"levels": 8, "base": 0.2, "ratio": 0.2}, trials=1)
    rng = trial_rng(s.seed, 0)
    tower, action, seed = build_lift_scenario(s, rng)
    res = lift_group_rep(tower, action, seed, tol=1e-12)
    assert 0 < res.level < tower.top
    assert res.rep.defect() <= 1e-11
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
    tower, action, seed = build_lift_scenario(s, rng)
    res = lift_group_rep(tower, action, seed, tol=1e-12)
    z = res.rep.values[1]
    zeta = np.exp(2j * np.pi / d)
    algebra = tower.level(res.level)
    for a in range(d):
        lhs = algebra.act(a, z)
        assert operator_norm(lhs - zeta ** (-a) * z) <= 1e-11
    z_d = z.map(lambda p: np.linalg.matrix_power(p, d))
    assert operator_norm(z_d - identity_like(z_d)) <= 1e-11


def per_level_scan(tower, source_action, seed):
    """The level scan with every scanned level symmetrizing, unitarizing and
    measuring its own live blocks, down to the first accepted level or the
    top: its table, and its last level's seed and unitarized family."""
    H = source_action.source
    table = []
    for level in range(tower.top):
        act = tower.level(level).act
        seed_rep = ApproxRep(H, tower.project(level, 0, seed.values),
                             unitary=False, unital=False)
        eq = equivariance_defect(seed_rep.values, act, source_action)
        try:
            rho0 = ApproxRep(H, unitarize_values(symmetrize(seed_rep.values, act,
                                                            source_action)))
        except DefectTooLargeError:
            rho0 = None
        uni = None if rho0 is None else rho0.defect()
        accepted = uni is not None and uni < LEVEL_ACCEPT_THRESHOLD
        table.append(LevelReport(level, eq, seed_rep.defect(), rho0 is not None,
                                 uni, accepted))
        if accepted:
            break
    return table, seed_rep, rho0


def per_level_lift(tower, source_action, seed):
    """The lift over ``per_level_scan``: (level, table, rep values,
    correction, equivariance and projection residuals).  phi (the seed at
    the top) and the seed are exact here, so the intertwiner always runs,
    and the correction keeps the top quotient's blocks."""
    table, seed_rep, rho0 = per_level_scan(tower, source_action, seed)
    level, act = table[-1].level, tower.level(table[-1].level).act

    correction = correct_to_rep(rho0, tol=1e-12, pin=(tower, level))
    u = intertwiner(seed_rep, correction.last)
    assert operator_norm(tower.project(tower.top, level, seed_rep.values -
                                       correction.last.values)).max() <= 1e-11
    final = u @ seed_rep.values @ adjoint(u)
    phi = tower.project(tower.top, 0, seed.values)
    return (level, table, final, correction,
            equivariance_defect(final, act, source_action),
            operator_norm(tower.project(tower.top, level, final) - phi).max())


def lift_case(model, order, base, ratio, levels):
    s = Scenario(kind="lift", seed=31, source={"model": model, "order": order},
                 group={"kind": "cyclic", "params": 2 if model == "inversion" else order},
                 tower={"levels": levels, "base": base, "ratio": ratio}, trials=1)
    return build_lift_scenario(s, trial_rng(s.seed, 0))


def spy_level_figures(monkeypatch):
    """Per call of the lift's one-pass figure helper, the block positions of
    each of its screened norms, one list per stack."""
    calls, inside = [], []
    real_maxima, real_take = repcorrect._level_maxima, GAlgebra.take
    real_norm = repcorrect.largest_norm

    def maxima(stacks, algebra, keeps, floor):
        def counted():
            for item in stacks:
                calls[-1].append([])
                yield item
        calls.append([])
        inside.append(algebra)
        try:
            return real_maxima(counted(), algebra, keeps, floor)
        finally:
            inside.pop()

    def take(self, a, keep):
        if inside and self is inside[-1]:
            calls[-1][-1].append(list(keep))
        return real_take(self, a, keep)

    def norm(a, floor=0.0):
        if inside:
            calls[-1][-1].append("norm")
        return real_norm(a, floor)
    monkeypatch.setattr(repcorrect, "_level_maxima", maxima)
    monkeypatch.setattr(GAlgebra, "take", take)
    monkeypatch.setattr(repcorrect, "largest_norm", norm)
    return calls


def assert_one_norm_per_block(calls, tower):
    # Two figures, one stack each (every benchmark group fits one chunk),
    # and each of level 0's blocks in exactly one screened norm per stack.
    blocks = list(range(len(tower.level(0).blocks)))
    assert len(calls) == 2 and all(len(stacks) == 1 for stacks in calls)
    for (entries,) in calls:
        keeps, norms = entries[0::2], entries[1::2]
        assert norms == ["norm"] * len(keeps)
        assert sorted(j for keep in keeps for j in keep) == blocks


@pytest.mark.parametrize("model,order,base,ratio,levels,accept", [
    ("translation", 6, 0.2, 0.2, 8, 1),     # the benchmark's lift
    ("translation", 4, 0.6, 0.4, 7, 3),     # phases: the weighted gather
    ("inversion", 4, 0.6, 0.3, 6, 2),       # a permutation: the bare gather
    ("translation", 4, 0.9, 0.5, 8, 4),
    ("inversion", 4, 0.0, 0.3, 4, 0)])      # an exact seed: zero pair defects
def test_deep_lift_scan_is_bit_equal_to_the_per_level_loop(monkeypatch, model, order,
                                                           base, ratio, levels, accept):
    # The scan symmetrizes and polar-decomposes level 0 once, and each
    # level takes its live blocks of those; the table's seed figures come
    # from one pass over level 0's stacks.
    tower, action, seed = lift_case(model, order, base, ratio, levels)
    level, table, final, correction, eq, proj = per_level_lift(tower, action, seed)
    calls = {"symmetrize": 0, "_polar_parts": 0}
    for name in calls:
        real = getattr(repcorrect, name)
        monkeypatch.setattr(repcorrect, name, lambda *a, real=real, name=name:
                            calls.__setitem__(name, calls[name] + 1) or real(*a))
    seeds = []
    real_intertwiner = repcorrect.intertwiner
    monkeypatch.setattr(repcorrect, "intertwiner", lambda rho, sigma:
                        seeds.append(rho) or real_intertwiner(rho, sigma))
    figures = spy_level_figures(monkeypatch)
    res = lift_group_rep(tower, action, seed, tol=1e-12)
    assert calls == {"symmetrize": 1, "_polar_parts": 1}
    assert_one_norm_per_block(figures, tower)
    assert res.level == level == accept
    assert [row.unitarizable for row in table] == [False] * accept + [True]
    assert res.table == table
    # The seed the intertwiner gates holds the defect and pair the table
    # pass found, those a fresh measurement gives.
    (rho,) = seeds
    assert rho._defect == ApproxRep(rho.group, rho.values, unitary=False,
                                    unital=False).defect_with_argmax()
    assert all(np.array_equal(p, q) for p, q in zip(res.rep.values.parts, final.parts))
    assert (res.correction.trace, res.correction.iterations,
            res.correction.quotient_drift) == (correction.trace, correction.iterations,
                                               correction.quotient_drift)
    # The residuals are readouts of the exact figures the loop measures.
    assert_readout(res.equivariance_residual, eq)
    assert_readout(res.projection_residual, proj)


def test_failing_lift_table_is_bit_equal_to_the_per_level_loop(monkeypatch):
    tower, action, seed = lift_case("translation", 4, 0.9, 0.6, 5)
    table = per_level_scan(tower, action, seed)[0]
    assert len(table) == tower.top == 4 and not table[-1].accepted
    figures = spy_level_figures(monkeypatch)
    with pytest.raises(LiftError) as err:
        lift_group_rep(tower, action, seed, tol=1e-12)
    assert err.value.table == table
    assert_one_norm_per_block(figures, tower)


def test_lift_too_coarse_tower_fails_with_table():
    s = Scenario(kind="lift", seed=24, group={"kind": "cyclic", "params": 3},
                 source={"model": "translation", "order": 3},
                 tower={"levels": 3, "base": 0.4, "ratio": 0.9}, trials=1)
    rng = trial_rng(s.seed, 0)
    tower, action, seed = build_lift_scenario(s, rng)
    with pytest.raises(LiftError) as err:
        lift_group_rep(tower, action, seed, tol=1e-12)
    assert len(err.value.table) == tower.top


def test_lift_rejects_inexact_phi():
    s = Scenario(kind="lift", seed=25, group={"kind": "cyclic", "params": 3},
                 source={"model": "translation", "order": 3},
                 tower={"levels": 4, "base": 0.1, "ratio": 0.2}, trials=1)
    rng = trial_rng(s.seed, 0)
    tower, action, seed = build_lift_scenario(s, rng)
    bad = seed.values.map(np.copy)
    bad.parts[0][1, -1] *= np.exp(0.2j)         # the top block of u_1
    with pytest.raises(DefectTooLargeError, match="phi must be exact"):
        lift_group_rep(tower, action, ApproxRep(action.source, bad, unitary=False,
                                                unital=False), tol=1e-12)


def test_lift_refuses_a_correction_that_moves_the_top_quotient(monkeypatch):
    # A correction that conjugates the top quotient's block by a unitary
    # near 1 leaves an exact representation near the seed: the intertwiner
    # takes it, and the lift's own gate on the quotient, after it, refuses.
    tower, action, seed = lift_case("translation", 6, 0.2, 0.2, 8)
    v = exp_skew(0.01 * random_skew(trial_rng(3, 0), 6))
    moved, calls = [], []
    real_correct, real_intertwiner = repcorrect.correct_to_rep, repcorrect.intertwiner

    def correct(rep, tol, pin):
        correction = real_correct(rep, tol=tol, pin=pin)
        part = correction.last.values.parts[0].copy()
        part[:, -1] = v @ part[:, -1] @ adjoint(v)
        correction.last = ApproxRep(rep.group, Blocks((part,)))
        moved.append((pin[1], correction.last.values))
        return correction
    monkeypatch.setattr(repcorrect, "correct_to_rep", correct)
    monkeypatch.setattr(repcorrect, "intertwiner", lambda rho, sigma:
                        calls.append(rho) or real_intertwiner(rho, sigma))
    with pytest.raises(DefectTooLargeError) as err:
        lift_group_rep(tower, action, seed, tol=1e-12)
    [(level, values)] = moved
    assert len(calls) == 1
    mismatch = largest_norm(tower.project(tower.top, level, tower.project(
        level, 0, seed.values) - values))[0]
    assert mismatch > 1e-11
    assert str(err.value) == f"quotients of rho and sigma differ by {mismatch:.3e}"


def test_source_action_validation():
    g = cyclic_group(2)
    h = cyclic_group(3)
    perm = np.stack([np.arange(3), np.array([0, 2, 1])])
    scalar = np.ones((2, 3), dtype=complex)
    SourceAction(group=g, source=h, perm=perm, scalar=scalar)  # inversion: ok
    bad_perm = np.stack([np.arange(3), np.array([1, 0, 2])])   # not an automorphism
    with pytest.raises(ValueError):
        SourceAction(group=g, source=h, perm=bad_perm, scalar=scalar)
