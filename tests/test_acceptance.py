"""Acceptance battery: every corrector is exercised over randomized trial
matrices and checked against its certified bound at the stated tolerance.
One summary line is printed per criterion."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.linalg import expm

from equifix.groups import CircleWeights, circle_average, cyclic_group, make_group
from equifix.matfun import Blocks, adjoint, identity_like, operator_norm
from equifix.galgebra import GHom, Tower, trivial_action_algebra
from equifix.repcorrect import (ApproxRep, correct_to_rep, intertwiner,
                                lift_group_rep, one_step)
from equifix.cocycles import coboundary, one_step_cobound, trivialize, \
    verify_integral_estimate
from equifix.relations import stabilize_partition, stabilize_tracial_partition
from equifix.graded import graded_correct, regular_graded_model
from equifix.scenarios import (Scenario, build_lift_scenario,
                               build_rokhlin_scenario, exact_rep_values,
                               random_skew, random_unitary, trial_rng)

GROUP_SPECS = [("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("cyclic", 5),
               ("cyclic", 6), ("symmetric", 3), ("dihedral", 4)]
GROUPS = {spec: make_group(*spec) for spec in GROUP_SPECS}


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def perturbed_rep_with_target(spec, dim, target_r, rng):
    """Exact representation multiplied by exp(eps K_g), with eps rescaled so
    the measured defect lands on the requested target."""
    group = GROUPS[spec]
    exact = exact_rep_values({"kind": spec[0], "params": spec[1]}, group, dim, rng)
    ks = [random_skew(rng, dim) if g != group.identity else None
          for g in range(group.order)]

    def apply(eps):
        vals = exact.copy()
        for g in range(group.order):
            if ks[g] is not None:
                vals[g] = exact[g] @ expm(eps * ks[g])
        return vals

    eps = target_r / 2.0
    for _ in range(4):
        vals = apply(eps)
        r = ApproxRep(group, vals).defect()
        if 1e-3 <= r <= 0.05:
            break
        eps *= target_r / max(r, 1e-12)
    return group, exact, vals, r


@pytest.fixture(scope="module")
def rep_trials():
    """500 perturbed representations, reused by criteria 1 and 2."""
    trials = []
    for i in range(500):
        rng = trial_rng(1000, i)
        spec = GROUP_SPECS[i % len(GROUP_SPECS)]
        dim = 2 + (i % 7)
        target = float(np.exp(rng.uniform(np.log(1.5e-3), np.log(0.04))))
        group, exact, vals, r = perturbed_rep_with_target(spec, dim, target, rng)
        trials.append((group, ApproxRep(group, vals), r))
    return trials


def test_criterion_1_one_step_bound(rep_trials):
    start = time.perf_counter()
    worst_ratio = 0.0
    for group, rep, r in rep_trials:
        assert 1e-3 <= r <= 0.05
        out = one_step(rep)
        d = out.defect()
        move = rep.distance_to(out)
        assert d <= 17 * r ** 2 + 1e-10, (group.name, r, d)
        assert move <= 2 * r + 1e-10, (group.name, r, move)
        worst_ratio = max(worst_ratio, d / r ** 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"one-step battery took {elapsed:.1f}s"
    _report("criterion 1 (one-step bound)", True,
            f"500 trials, worst defect/r^2 = {worst_ratio:.3f} <= 17, "
            f"{elapsed:.1f}s")


def test_criterion_2_full_correction(rep_trials):
    worst_iters = 0
    for group, rep, r in rep_trials:
        res = correct_to_rep(rep, tol=1e-12)
        assert res.rep.defect() <= 1e-12
        assert res.iterations <= 20
        assert rep.distance_to(res.rep) <= 2 * r / (1 - 17 * r) + 1e-9
        worst_iters = max(worst_iters, res.iterations)
    # tower-quotient variant: perturbation upstairs only, downstairs pinned
    worst_drift = 0.0
    for i in range(60):
        rng = trial_rng(2000, i)
        spec = GROUP_SPECS[i % len(GROUP_SPECS)]
        group = GROUPS[spec]
        dim = 2 + (i % 4)
        algebra = trivial_action_algebra((dim, dim), group)
        tower = Tower(algebra=algebra, ideals=(frozenset(), frozenset({0})))
        base = exact_rep_values({"kind": spec[0], "params": spec[1]},
                                group, dim, rng)
        vals = np.stack([base, base], axis=1)
        for g in range(group.order):
            if g == group.identity:
                continue
            # the block the quotient kills
            vals[g, 0] = base[g] @ expm(0.02 * random_skew(rng, 2 * dim, dim))
        rep = ApproxRep(group, Blocks((vals,)))
        res = correct_to_rep(rep, tol=1e-12,
                             quotient=lambda a: tower.project_to_top(0, a))
        assert res.rep.defect() <= 1e-12
        assert res.quotient_drift <= 1e-12
        worst_drift = max(worst_drift, res.quotient_drift)
    _report("criterion 2 (full correction)", True,
            f"500 + 60 tower trials, max iterations {worst_iters} <= 20, "
            f"max downstairs drift {worst_drift:.2e} <= 1e-12")


def test_criterion_3_integral_estimate():
    worst = {}
    for i in range(200):
        rng = trial_rng(3000, i)
        target = (0.1, 0.3, 0.45)[i % 3]
        spec = GROUP_SPECS[i % len(GROUP_SPECS)]
        group = GROUPS[spec]
        dim = 2 + (i % 5)
        theta = 2 * np.arcsin(target / 2)
        vals = np.stack([expm(theta * random_skew(rng, dim))
                         for _ in range(group.order)])
        r = max(operator_norm(vals[g] - np.eye(dim))
                for g in range(group.order))
        assert r <= 0.5
        lhs, bound = verify_integral_estimate(group, vals)[:2]
        assert lhs <= bound + 1e-10
        avg = operator_norm(vals.mean(axis=0))
        assert avg <= 1 + 1e-12
        worst[target] = max(worst.get(target, 0.0), lhs)
    _report("criterion 3 (integral estimate)", True,
            f"200 trials, worst lhs per r-level: "
            + ", ".join(f"r={k}: {v:.4f}" for k, v in sorted(worst.items())))


def test_criterion_4_cocycle_engine():
    from equifix.galgebra import matrix_algebra
    from equifix.scenarios import nontrivial_action_rep
    for i in range(300):
        rng = trial_rng(4000, i)
        spec = GROUP_SPECS[i % len(GROUP_SPECS)]
        group = GROUPS[spec]
        dim = 2 + (i % 6)
        action = nontrivial_action_rep({"kind": spec[0], "params": spec[1]},
                                       group, dim, rng)
        algebra = matrix_algebra(dim, group, list(action))
        v = random_unitary(rng, dim)
        w = coboundary(algebra, v)
        k = random_skew(rng, dim)
        eps = float(np.exp(rng.uniform(np.log(8e-4), np.log(0.02))))
        v0 = v @ expm(eps * k)
        r, _ = w.mismatch(v0)
        for _ in range(4):
            if 1e-3 <= r <= 0.05:
                break
            eps *= min(max(0.01 / max(r, 1e-12), 0.02), 50.0)
            v0 = v @ expm(eps * k)
            r, _ = w.mismatch(v0)
        assert 1e-3 <= r <= 0.05
        z = one_step_cobound(w, v0)
        assert w.mismatch(z)[0] <= 10 * r ** 2 + 1e-10
        assert operator_norm(z - v0) <= 2 * r + 1e-10
        res = trivialize(w, v0, tol=1e-12)
        assert res.mismatch <= 1e-12
        assert operator_norm(res.unitary - v0) <= 2 * r / (1 - 10 * r) + 1e-9
    _report("criterion 4 (cocycle engine)", True,
            "300 trials: one-step <= 10 r^2, trivialization <= 1e-12, "
            "distance <= 2r/(1-10r)")


def test_criterion_5_intertwiner():
    worst_conj = worst_down = 0.0
    for i in range(200):
        rng = trial_rng(5000, i)
        spec = GROUP_SPECS[i % len(GROUP_SPECS)]
        group = GROUPS[spec]
        dim = 2 + (i % 5)
        with_tower = (i % 2 == 1)
        if with_tower:
            algebra = trivial_action_algebra((dim, dim), group)
            tower = Tower(algebra=algebra, ideals=(frozenset(), frozenset({0})))
            base = exact_rep_values({"kind": spec[0], "params": spec[1]},
                                    group, dim, rng)
            k = random_skew(rng, 2 * dim, dim)      # the block the quotient kills
            v = expm(rng.uniform(0.05, 0.4) * k)
            rho = ApproxRep(group, Blocks((np.stack([base, base], axis=1),)))
            sigma = ApproxRep(group, Blocks((np.stack(
                [v @ base @ v.conj().T, base], axis=1),)))
            quotient = lambda a: tower.project_to_top(0, a)
        else:
            vals = exact_rep_values({"kind": spec[0], "params": spec[1]},
                                    group, dim, rng)
            k = random_skew(rng, dim)
            rho = ApproxRep(group, vals)
            sigma = rho.conjugate(expm(rng.uniform(0.05, 0.4) * k))
            quotient = None
        assert rho.distance_to(sigma) < 1.0
        u = intertwiner(rho, sigma, quotient=quotient)
        conj = max(operator_norm(u @ rho.values[g] @ adjoint(u) - sigma.values[g])
                   for g in range(group.order))
        assert conj <= 1e-11
        worst_conj = max(worst_conj, conj)
        if quotient is not None:
            down = operator_norm(quotient(u) - quotient(identity_like(u)))
            assert down <= 1e-11
            worst_down = max(worst_down, down)
    _report("criterion 5 (intertwiner)", True,
            f"200 trials, worst conjugation residual {worst_conj:.2e} <= 1e-11, "
            f"worst kappa(u)-1 {worst_down:.2e} <= 1e-11")


def test_criterion_6_end_to_end_lifting():
    levels_found = []
    for i in range(50):
        if i % 2 == 0:
            d = (2, 3, 4)[(i // 2) % 3]
            src = {"model": "translation", "order": d}
            gspec = {"kind": "cyclic", "params": d}
        else:
            m = (3, 4, 5)[(i // 2) % 3]
            src = {"model": "inversion", "order": m}
            gspec = {"kind": "cyclic", "params": 2}
        # alternate shallow and rough towers so the level search genuinely
        # scans: rough bases force several rejected levels first
        tower = {"levels": 5 + (i % 4), "base": 0.15, "ratio": 0.2} \
            if i % 3 else {"levels": 8, "base": 0.45, "ratio": 0.45}
        s = Scenario(kind="lift", seed=6000 + i, group=gspec, source=src,
                     tower=tower, trials=1)
        rng = trial_rng(s.seed, 0)
        tower, phi, action, seed = build_lift_scenario(s, rng)
        res = lift_group_rep(tower, phi, action, seed=seed)
        final = GHom(action.source, res.rep.values, level=res.level)
        assert res.level < tower.top
        assert final.mult_defect() <= 1e-11
        assert res.equivariance_residual <= 1e-11
        assert res.projection_residual <= 1e-11
        # independent certificate: the tower was built from a known exact
        # answer, so the projected lift must reproduce it directly
        worst = max(operator_norm(tower.project(tower.top, res.level,
                                                res.rep.values[x]) -
                                  phi.values[x])
                    for x in range(action.source.order))
        assert worst <= 1e-11
        levels_found.append(res.level)
    _report("criterion 6 (equivariant lifting)", True,
            f"50 towers (N <= 8), lift levels found: "
            f"min {min(levels_found)}, max {max(levels_found)}")


def test_criterion_7_rokhlin_exactness():
    worst = 0.0
    displacements = []
    for i in range(100):
        rng = trial_rng(7000, i)
        d = (2, 3, 4)[i % 3]
        block = 1 + (i // 3) % (12 // d)
        mag = float(rng.uniform(0.005, 0.04))
        algebra, exact, seeds = build_rokhlin_scenario(d, block, mag, rng)
        res = stabilize_partition(algebra, seeds)
        assert max(res.residuals.values()) <= 1e-12
        worst = max(worst, max(res.residuals.values()))
        displacements.append(res.displacement)
    # tracial variant: conditions (1)-(2) exact, corner bookkeeping reported
    for i in range(30):
        rng = trial_rng(7500, i)
        d = (2, 3)[i % 2]
        block, corank = 2, 1 + (i % 2)
        n = d * block + corank
        corner_shift = np.kron(np.roll(np.eye(d), 1, axis=0), np.eye(block))
        unitaries = []
        for g in range(d):
            u = np.zeros((n, n), dtype=complex)
            u[:d * block, :d * block] = np.linalg.matrix_power(corner_shift, g)
            u[d * block:, d * block:] = np.eye(corank)
            unitaries.append(u)
        from equifix.galgebra import matrix_algebra
        algebra = matrix_algebra(n, cyclic_group(d), unitaries)
        exact = np.zeros((d, n, n), dtype=complex)
        for g in range(d):
            exact[g, g * block:(g + 1) * block,
                  g * block:(g + 1) * block] = np.eye(block)
        seeds = np.stack([
            (lambda q: q @ exact[g] @ q.conj().T)(expm(0.02 * random_skew(rng, n)))
            for g in range(d)])
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = y @ y.conj().T
        x /= operator_norm(x)
        res = stabilize_tracial_partition(algebra, seeds, x)
        for name in ("projection", "self_adjoint", "orthogonality",
                     "equivariance", "unit_sum"):
            assert res.residuals[name] <= 1e-12, name
        assert res.complement_rank == corank
        e = res.projections.sum(axis=0)
        assert abs(res.witness_compression_norm - operator_norm(e @ x @ e)) <= 1e-10
    _report("criterion 7 (Rokhlin exactness)", True,
            f"100 + 30 tracial trials, worst residual {worst:.2e} <= 1e-12, "
            f"max displacement {max(displacements):.3f}")


def test_criterion_8_graded_correction():
    worst_comp = 0.0
    for i in range(100):
        rng = trial_rng(8000, i)
        d = (2, 3, 4)[i % 3]
        group = cyclic_group(d)
        algebra, left = regular_graded_model(group)
        values = left.copy()
        for g in range(1, d):
            values[g] = left[g] @ expm(float(rng.uniform(5e-4, 2e-3))
                                       * random_skew(rng, d))
        res = graded_correct(algebra, values, tol=1e-12)
        assert res.rep.defect() <= 1e-12
        assert max(res.component_residuals) <= 1e-12
        worst_comp = max(worst_comp, max(res.component_residuals))
    _report("criterion 8 (graded correction)", True,
            f"100 trials over Z/2, Z/3, Z/4, worst per-iterate component "
            f"residual {worst_comp:.2e} <= 1e-12")


def test_criterion_9_circle_averaging():
    for i in range(50):
        rng = trial_rng(9000, i)
        n = 2 + (i % 5)
        weights = CircleWeights(tuple(int(x) for x in rng.integers(-4, 5, size=n)))
        m = int(rng.integers(-3, 4))
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        nodes = weights.default_nodes(m)
        a = circle_average(weights, v, m, nodes=nodes)
        b = circle_average(weights, v, m, nodes=nodes + 1)
        assert operator_norm(a - b) <= 1e-13
        for eta in np.exp(2j * np.pi * rng.random(3)):
            u = weights.unitary_at(eta)
            assert operator_norm(u @ a @ u.conj().T - eta ** (-m) * a) <= 1e-12
    _report("criterion 9 (circle averaging)", True,
            "50 trials: exact covariance at 1e-12 and N vs N+1 agreement "
            "at 1e-13")


def test_criterion_10_suite_subcommand(tmp_path):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "equifix.cli", "suite", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 300.0
    for kind in ("rep", "cocycle", "lift", "rokhlin", "tracial", "graded",
                 "integral_estimate"):
        assert (tmp_path / kind / "report.json").exists()
    # The two rep entries keep separate reports, each with its own seed and
    # trial count.
    for label, seed, trials in (("rep", 0, 25), ("rep_tower", 1, 10)):
        report = json.loads((tmp_path / label / "report.json").read_text())
        assert report["scenario"]["seed"] == seed
        assert len(report["trials"]) == trials
    _report("criterion 10 (suite subcommand)", True,
            f"exit 0 in {elapsed:.1f}s < 300s")
