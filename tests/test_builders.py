"""Property tests for the stacked scenario builders and the models they
share between trials.  Each stacked builder is compared bit for bit with
the per-element loop it replaced (``dense_reference``), including the
state its generator is left in; each cached model is read-only, runs its
composition self-check once, and leaves a scenario's outputs independent
of what ran before it in the process."""

import json
import subprocess
import sys

import numpy as np
import pytest

import dense_reference as ref
from equifix import scenarios
from equifix.galgebra import GAlgebra
from equifix.groups import make_group
from equifix.scenarios import (SUITE, Scenario, build_lift_scenario,
                               build_rokhlin_scenario, exact_rep_values,
                               perturb_rep_values, random_skew, run_scenario,
                               suite_scenarios, trial_rng)

# The GROUP_SPECS of test_batched, with more dihedral, symmetric and
# (nested) product groups.
SPECS = [{"kind": "cyclic", "params": 2}, {"kind": "cyclic", "params": 5},
         {"kind": "dihedral", "params": 3}, {"kind": "symmetric", "params": 3},
         {"kind": "cyclic", "params": 1}, {"kind": "dihedral", "params": 1},
         {"kind": "dihedral", "params": 4}, {"kind": "dihedral", "params": 6},
         {"kind": "symmetric", "params": 4},
         {"kind": "product", "params": [["cyclic", 2], ["cyclic", 3]]},
         {"kind": "product", "params": [["dihedral", 3], ["cyclic", 4]]},
         {"kind": "product", "params": [["symmetric", 3], ["dihedral", 4]]},
         {"kind": "product", "params": [["product", [["cyclic", 2], ["cyclic", 2]]],
                                        ["cyclic", 3]]}]
SPEC_IDS = [json.dumps(s["params"]).replace(" ", "") for s in SPECS]


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_same_state(rng_a, rng_b):
    """Both generators draw the same numbers next."""
    assert rng_a.bit_generator.random_raw(5).tolist() == \
        rng_b.bit_generator.random_raw(5).tolist()


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_menu_stacks_match_the_per_element_pieces(spec):
    group = make_group(spec["kind"], spec["params"])
    menu = scenarios._menu(scenarios._key(spec))
    pieces = ref.loop_menu(spec["kind"], spec["params"])
    assert len(menu) == len(pieces)
    for stack, (k, fn) in zip(menu, pieces):
        assert stack.shape == (group.order, k, k)
        assert_same_bits(stack, np.stack([fn(g) for g in range(group.order)]))


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("dim", [1, 3, 8])
def test_exact_and_perturbed_values_match_the_loops(spec, dim):
    group = make_group(spec["kind"], spec["params"])
    for trial in range(3):
        rng, loop_rng = trial_rng(7, trial), trial_rng(7, trial)
        exact = exact_rep_values(spec, group, dim, rng)
        assert_same_bits(exact, ref.loop_exact_rep_values(spec, group, dim, loop_rng))
        for draw in (None, 2 * dim):
            assert_same_bits(perturb_rep_values(exact, 0.01, rng, draw=draw),
                             ref.loop_perturb_rep_values(exact, 0.01, loop_rng,
                                                         draw=draw))
        assert_same_state(rng, loop_rng)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("corner", [None, 1, 2])
@pytest.mark.parametrize("count", [0, 1, 4])
def test_counted_skews_match_separate_calls(n, corner, count):
    corner = None if corner is None else min(corner, n)
    rng, loop_rng = trial_rng(3, 1), trial_rng(3, 1)
    size = n if corner is None else corner
    loops = [ref.loop_random_skew(loop_rng, n, corner) for _ in range(count)]
    assert_same_bits(random_skew(rng, n, corner, count=count),
                     np.array(loops, dtype=complex).reshape(count, size, size))
    assert_same_bits(random_skew(rng, n, corner),
                     ref.loop_random_skew(loop_rng, n, corner))
    assert_same_state(rng, loop_rng)


@pytest.mark.parametrize("d, block, corank", [(2, 2, 0), (3, 2, 0), (4, 6, 0),
                                              (3, 5, 1), (2, 1, 3), (1, 4, 0)])
def test_rokhlin_model_and_seeds_match_the_loop(d, block, corank):
    for trial in range(2):
        rng, loop_rng = trial_rng(5, trial), trial_rng(5, trial)
        algebra, exact, seeds = build_rokhlin_scenario(d, block, 0.02, rng, corank)
        unitaries, loop_exact, loop_seeds = ref.loop_rokhlin(d, block, 0.02, loop_rng,
                                                             corank)
        assert_same_bits(np.stack([u[0] for u in algebra.unitaries]), unitaries)
        assert_same_bits(exact, loop_exact)
        assert_same_bits(seeds, loop_seeds)
        assert_same_state(rng, loop_rng)


@pytest.mark.parametrize("model, order, levels, base, ratio", [
    ("translation", 3, 8, 0.2, 0.2), ("translation", 6, 4, 0.1, 0.5),
    ("inversion", 4, 5, 0.2, 0.3), ("translation", 2, 2, 1e4, 1e-6)])
def test_lift_seed_matches_the_per_stage_loop(model, order, levels, base, ratio):
    s = Scenario.from_dict(SUITE["lift"][1], seed=0,
                           source={"model": model, "order": order},
                           tower={"levels": levels, "base": base, "ratio": ratio})
    for trial in range(2):
        rng, loop_rng = trial_rng(9, trial), trial_rng(9, trial)
        _, _, seed = build_lift_scenario(s, rng)
        assert_same_bits(seed.values.parts[0],
                         ref.loop_lift_seed_values(order, levels, base, ratio, loop_rng))
        assert_same_state(rng, loop_rng)


def assert_same_tower(tower, want):
    """The same blocks, perms, unitary bytes (as given and as stacked) and
    ideals."""
    got, ref_alg = tower.algebra, want.algebra
    assert got.blocks == ref_alg.blocks and tower.ideals == want.ideals
    assert_same_bits(got.perms, ref_alg.perms)
    for us, ref_us in zip(got.unitaries, ref_alg.unitaries, strict=True):
        for u, ref_u in zip(us, ref_us, strict=True):
            assert_same_bits(np.asarray(u), np.asarray(ref_u))
    for u, ref_u in zip(got._u, ref_alg._u, strict=True):
        assert_same_bits(u, ref_u)


@pytest.mark.parametrize("spec", SPECS[:6])
@pytest.mark.parametrize("dim", [1, 3])
def test_copies_tower_matches_the_two_block_tower(spec, dim):
    group = make_group(spec["kind"], spec["params"])
    assert_same_tower(scenarios._identity_tower(scenarios._key(spec), dim),
                      ref.two_block_tower(group, [np.eye(dim)] * group.order))
    action = exact_rep_values(spec, group, dim, trial_rng(3, dim))
    assert_same_tower(scenarios._copies_tower(group, action),
                      ref.two_block_tower(group, action))


@pytest.mark.parametrize("model, order, levels", [
    ("translation", 3, 8), ("translation", 1, 2), ("translation", 6, 4),
    ("inversion", 4, 5), ("inversion", 1, 3)])
def test_copies_tower_matches_the_lift_stage_tower(model, order, levels):
    tower, action, _ = scenarios._lift_model(model, order, levels)
    assert_same_tower(tower, ref.stage_tower(action.group,
                                             ref.stage_unitaries(model, order), levels))


# --- the models shared between trials -----------------------------------------

MODEL_CACHES = (scenarios._menu, scenarios._identity_tower, scenarios._lift_model,
                scenarios._rokhlin_model)


def test_cached_models_are_read_only():
    menu = scenarios._menu(scenarios._key({"kind": "dihedral", "params": 3}))
    algebra, exact, _ = build_rokhlin_scenario(3, 2, 0.02, trial_rng(0, 0))
    lift = Scenario.from_dict(SUITE["lift"][1], seed=0)
    tower, action, _ = build_lift_scenario(lift, trial_rng(0, 0))
    rep_tower = scenarios._identity_tower(
        scenarios._key(SUITE["rep_tower"][1]["group"]), 4)
    # The level quotients a trial builds in a cached tower are cached too.
    assert scenarios.run_lift_trial(lift, 0).all_passed()
    assert scenarios.run_rep_trial(
        Scenario.from_dict(SUITE["rep_tower"][1], seed=0), 0).all_passed()
    levels = (tower.level(0), rep_tower.level(1))
    # The gather arrays of the monomial sizes too: offsets everywhere,
    # weights where the unitaries carry phases (the lift's).
    assert all(w is None for w in (algebra._w[0], rep_tower.level(1)._w[0]))
    for x in (*menu, exact, algebra.perms, algebra.unitaries[1][0], algebra._u[0],
              algebra._idx[0], tower.algebra.unitaries[1][0], tower.algebra._uh[0],
              tower.algebra._idx[0], tower.algebra._w[0], action.scalar,
              action.perm, rep_tower.algebra._u[0], rep_tower.algebra.group.mult,
              rep_tower.algebra._idx[0], tower.level(0)._w[0],
              *(a for q in levels for a in (q.perms, q._u[0], q._uh[0], q._src[0],
                                            q._idx[0]))):
        with pytest.raises(ValueError, match="read-only"):
            x[(0,) * x.ndim] = 2


def test_each_cached_model_checks_its_action_once(tmp_path, monkeypatch):
    checks = []
    real = GAlgebra.action_defect
    monkeypatch.setattr(GAlgebra, "action_defect",
                        lambda self, *a, **k: checks.append(self) or real(self, *a, **k))
    for cache in MODEL_CACHES:
        cache.cache_clear()
    for label in ("rep_tower", "lift", "rokhlin", "tracial"):
        for seed in (0, 1):
            s = Scenario.from_dict(SUITE[label][1], seed=seed, trials=3)
            assert run_scenario(s, tmp_path / f"{label}{seed}").all_passed
        # A cached model's arrays are read-only; per-trial algebras (the
        # tracial corner's) are not, and check themselves every trial.
        assert len([a for a in checks if not a.perms.flags.writeable]) == 1, label
        checks.clear()


# Runs the suite at seed 0, three trials per entry, into argv[1].
FRESH_RUN = """
import sys
from equifix.scenarios import run_scenario, suite_scenarios
for label, s in suite_scenarios(0, trials=3):
    run_scenario(s, f"{sys.argv[1]}/{label}")
"""


def test_outputs_do_not_depend_on_what_ran_before(tmp_path):
    # A (the suite at seed 0), then B (the suite at seed 5, then at dimension
    # 6, which builds other models), then A again, in this process, whose
    # caches earlier tests have filled too; A alone runs in a fresh process.
    for name, seed, overrides in (("a", 0, {}), ("b", 5, {}), ("b6", 5, {"dimension": 6}),
                                  ("a_again", 0, {})):
        for label, s in suite_scenarios(seed, trials=3, **overrides):
            run_scenario(s, tmp_path / name / label)
    proc = subprocess.run([sys.executable, "-c", FRESH_RUN, str(tmp_path / "fresh")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for label in SUITE:
        alone = (tmp_path / "fresh" / label / "trace.csv").read_bytes()
        assert (tmp_path / "a" / label / "trace.csv").read_bytes() == alone
        assert (tmp_path / "a_again" / label / "trace.csv").read_bytes() == alone
