"""The correctors' pinned route against the whole-stack route it replaces.

With ``pin=(tower, level)`` the top quotient's blocks are measured once,
split off and re-attached unchanged, and only the other blocks iterate.
Run unpinned, the same correctors step every block.  The two must agree:
equal iteration counts, trace values within 1e-14 + 1e-12|v|, the frozen
blocks bit-equal to the input, the moving blocks within 1e-12 of the whole
route's.  The towers cover the benchmark's two equal blocks, two block
sizes whose frozen blocks lie in both size classes at interleaved
positions, and a pin below level 0 whose one moving block goes dense;
the rep and cocycle correctors and the lift are each checked.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import layout
from equifix import cocycles, repcorrect
from equifix.cocycles import coboundary, cocycle, mismatch, trivialize
from equifix.galgebra import GAlgebra, Tower, max_pair_defect
from equifix.matfun import Blocks, exp_skew, largest_norm
from equifix.repcorrect import (ApproxRep, ConvergenceError, DefectTooLargeError,
                                correct_to_rep, lift_group_rep)
from equifix.scenarios import (Scenario, build_lift_scenario, exact_rep_values,
                               group_of, perturb_rep_values, random_skew,
                               random_unitary, trial_rng)

seeds = st.integers(0, 2 ** 32 - 1)
specs = st.sampled_from([{"kind": "cyclic", "params": 4},
                         {"kind": "dihedral", "params": 3},
                         {"kind": "symmetric", "params": 3}])
# (block sizes in units of d and d + 1, ideals, pinned level).  "pair" is
# the benchmark's shape; "interleaved" freezes positions 1 and 2, one of
# each size, so neither size class is contiguous; "deep" pins level 1,
# whose one moving block (size d + 1) iterates as a dense stack.
TOWERS = {"pair": ((0, 0), ({0},), 0),
          "interleaved": ((0, 1, 0, 1), ({0, 3},), 0),
          "deep": ((1, 0, 1, 0), ({3}, {0, 3}), 1)}
towers = st.sampled_from(sorted(TOWERS))


def build_tower(name, spec, d, rng):
    """The named tower over group_of(spec), each block acted on by Ad of
    an exact representation of its size, and the pinned (tower, level)."""
    units, ideals, level = TOWERS[name]
    group = group_of(spec)
    sizes = tuple(d + u for u in units)
    reps = [exact_rep_values(spec, group, b, rng) for b in sizes]
    algebra = GAlgebra(sizes, group, np.tile(np.arange(len(sizes)), (group.order, 1)),
                       tuple(tuple(r[g] for r in reps) for g in range(group.order)))
    return Tower(algebra, (frozenset(),) + tuple(map(frozenset, ideals))), level


def element(tower, level, arrays):
    """Blocks of ``tower.level(level)`` from one array per live block."""
    live = [j for j in range(len(tower.algebra.blocks)) if j not in tower.ideals[level]]
    sizes = [tower.algebra.blocks[j] for j in live]
    return Blocks(np.stack([arrays[live[i]] for i in positions], axis=-3)
                  for _, positions in layout(sizes))


def frozen_and_moving(tower, level, a):
    keep = tower.kept(tower.top, level)
    return tower.project(tower.top, level, a), tower.level(level).split(a, keep)[0]


def assert_routes_agree(pinned, whole, tower, level, x0, values):
    assert pinned.iterations == whole.iterations
    got, want = np.array(pinned.trace), np.array(whole.trace)
    assert np.all(np.abs(got - want) <= 1e-14 + 1e-12 * np.abs(want))
    assert pinned.quotient_drift == 0.0
    frozen, moving = frozen_and_moving(tower, level, values(pinned.last))
    frozen0, _ = frozen_and_moving(tower, level, x0)
    assert all(np.array_equal(p, q) for p, q in zip(frozen.parts, frozen0.parts))
    want_moving = frozen_and_moving(tower, level, values(whole.last))[1]
    assert largest_norm(moving - want_moving)[0] <= 1e-12


def assert_defect_is_measured(last):
    # The re-attached iterate caches the defect and pair its parts gave,
    # those a fresh measurement of the whole finds.
    fresh = ApproxRep(last.group, last.values).defect_with_argmax()
    assert last.defect_with_argmax() == fresh and fresh[0] <= 1e-12


def rep_case(seed, spec, d, name, magnitude, frozen_noise=0.0):
    """A pinned rep input: exact on every block, the blocks outside the
    top quotient perturbed by ``magnitude`` and the others by
    ``frozen_noise``."""
    rng = trial_rng(seed, 0)
    tower, level = build_tower(name, spec, d, rng)
    group, sizes = tower.algebra.group, tower.algebra.blocks
    top = tower.ideals[tower.top]
    arrays = [perturb_rep_values(exact_rep_values(spec, group, b, rng),
                                 magnitude if j in top else frozen_noise, rng)
              for j, b in enumerate(sizes)]
    return ApproxRep(group, element(tower, level, arrays)), tower, level


def cocycle_case(seed, spec, d, name, magnitude, frozen_noise=0.0):
    """A pinned cocycle w = coboundary(v) over the level and a seed v0
    moved by ``magnitude`` off v on the blocks outside the top quotient
    and by ``frozen_noise`` on the others."""
    rng = trial_rng(seed, 0)
    tower, level = build_tower(name, spec, d, rng)
    sizes, top = tower.algebra.blocks, tower.ideals[tower.top]
    v = [random_unitary(rng, b) for b in sizes]
    v0 = [u @ exp_skew((magnitude if j in top else frozen_noise) *
                       random_skew(rng, sizes[j])) for j, u in enumerate(v)]
    algebra = tower.level(level)
    return (coboundary(algebra, element(tower, level, v)), element(tower, level, v0),
            tower, level)


@settings(max_examples=25, deadline=None)
@given(seeds, specs, st.integers(1, 3), towers, st.floats(0.001, 0.015))
def test_pinned_rep_matches_the_whole_stack_route(seed, spec, d, name, magnitude):
    rep, tower, level = rep_case(seed, spec, d, name, magnitude)
    pinned = correct_to_rep(rep, tol=1e-12, pin=(tower, level))
    whole = correct_to_rep(ApproxRep(rep.group, rep.values), tol=1e-12)
    assert_routes_agree(pinned, whole, tower, level, rep.values, lambda r: r.values)
    assert_defect_is_measured(pinned.last)


@settings(max_examples=25, deadline=None)
@given(seeds, specs, st.integers(1, 3), towers, st.floats(0.001, 0.015))
def test_pinned_cocycle_matches_the_whole_stack_route(seed, spec, d, name, magnitude):
    w, v0, tower, level = cocycle_case(seed, spec, d, name, magnitude)
    pinned = trivialize(w, v0, tol=1e-12, pin=(tower, level))
    whole = trivialize(w, v0, tol=1e-12)
    assert_routes_agree(pinned, whole, tower, level, v0, lambda v: v)
    assert mismatch(w, pinned.last)[0] <= 1e-12


@settings(max_examples=8, deadline=None)
@given(seeds, st.sampled_from([("translation", 3), ("translation", 6),
                               ("inversion", 4)]), st.integers(4, 8))
def test_pinned_lift_correction_matches_the_whole_stack_route(seed, source, levels):
    model, order = source
    s = Scenario(kind="lift", seed=seed, source={"model": model, "order": order},
                 tower={"levels": levels, "base": 0.2, "ratio": 0.2}, trials=1)
    tower, action, lift_seed = build_lift_scenario(s, trial_rng(seed, 0))
    calls = []

    def spy(rep, tol, pin):
        calls.append((rep, pin, correct_to_rep(rep, tol=tol, pin=pin)))
        return calls[-1][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repcorrect, "correct_to_rep", spy)
        result = lift_group_rep(tower, action, lift_seed, tol=1e-12)
    [(rho0, (pinned_tower, level), pinned)] = calls
    assert pinned_tower is tower and level == result.level
    whole = correct_to_rep(ApproxRep(rho0.group, rho0.values), tol=1e-12)
    assert_routes_agree(pinned, whole, tower, level, rho0.values, lambda r: r.values)
    assert_defect_is_measured(pinned.last)


def test_split_reattaches_interleaved_blocks_unchanged():
    rng = trial_rng(5, 0)
    tower, level = build_tower("interleaved", {"kind": "cyclic", "params": 4}, 2, rng)
    algebra = tower.level(level)
    a = Blocks(rng.standard_normal((4,) + shape) + 0j for shape in algebra._shapes)
    keep = tower.kept(tower.top, level)
    assert keep == [1, 2] and algebra._classes == ((0, 2), (1, 3))
    moving, attach = algebra.split(a, keep)
    assert [p.shape for p in moving.parts] == [(4, 1, 2, 2), (4, 1, 3, 3)]
    assert all(np.array_equal(p, q) for p, q in zip(attach(moving).parts, a.parts))
    back = attach(moving * 2.0)
    assert all(np.array_equal(p[:, k], q[:, k]) for p, q, k in
               zip(back.parts, a.parts, (1, 0)))
    # One moving block is handed over dense and taken back dense.
    tower, level = build_tower("deep", {"kind": "cyclic", "params": 4}, 2, rng)
    algebra = tower.level(level)
    a = Blocks(rng.standard_normal((4,) + shape) + 0j for shape in algebra._shapes)
    moving, attach = algebra.split(a, tower.kept(tower.top, level))
    assert moving.shape == (4, 3, 3)
    assert all(np.array_equal(p, q) for p, q in zip(attach(moving).parts, a.parts))


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_inexact_pinned_quotient_is_rejected_before_any_step(monkeypatch, name):
    spec = {"kind": "dihedral", "params": 3}
    steps = []
    for module, step in ((repcorrect, "one_step"), (cocycles, "_cobound_step")):
        real = getattr(module, step)
        monkeypatch.setattr(module, step, lambda *a, real=real:
                            steps.append(a) or real(*a))
    rep, tower, level = rep_case(2, spec, 2, name, 0.01, frozen_noise=1e-9)
    down = tower.project(tower.top, level, rep.values)
    defect = max_pair_defect(down, rep.group.mult)[0]
    assert defect > 1e-12
    with pytest.raises(DefectTooLargeError) as err:
        correct_to_rep(rep, tol=1e-12, pin=(tower, level))
    assert str(err.value) == (f"quotient of the input is not an exact "
                              f"representation (defect {defect:.3e})")
    w, v0, tower, level = cocycle_case(2, spec, 2, name, 0.01, frozen_noise=1e-9)
    top = tower.level(tower.top)
    off = mismatch(cocycle(top, tower.project(tower.top, level, w.values)),
                   tower.project(tower.top, level, v0))[0]
    assert off > 1e-12
    with pytest.raises(DefectTooLargeError) as err:
        trivialize(w, v0, tol=1e-12, pin=(tower, level))
    assert str(err.value) == (f"seed does not trivialize the cocycle downstairs "
                              f"(off by {off:.3e})")
    assert steps == []


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_tol_below_rounding_fails_as_the_whole_stack_route(name):
    # The frozen blocks are off by 1e-15, above 1e-300: every block steps,
    # as unpinned, and the run fails with the same text and trace.  (A
    # seed equal to v there has frozen mismatch exactly 0 and stays split.)
    spec = {"kind": "dihedral", "params": 4}
    rep, tower, level = rep_case(3, spec, 2, name, 0.01, frozen_noise=1e-15)
    w, v0, _, _ = cocycle_case(3, spec, 2, name, 0.01, frozen_noise=1e-15)
    runs = [(lambda pin: correct_to_rep(rep, tol=1e-300, pin=pin)),
            (lambda pin: trivialize(w, v0, tol=1e-300, pin=pin))]
    for run in runs:
        errors = []
        for pin in ((tower, level), None):
            with pytest.raises(ConvergenceError) as err:
                run(pin)
            errors.append((str(err.value), err.value.trace))
        assert errors[0] == errors[1]
        assert errors[0][0].endswith("after 64 iterations")
