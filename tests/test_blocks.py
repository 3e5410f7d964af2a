"""Property tests for block storage: the action, the quotient maps, the
element norm, the pair defects, the equivariance defect, symmetrization
and unitarization on G-algebras with mixed block sizes and non-identity
block permutations, and the lift, tower-rep and tower-cocycle traces, each
against the dense reference in ``dense_reference``."""

import numpy as np
from hypothesis import given, settings, strategies as st

from dense_reference import (cocycle_tower_trace, dense_act, embed,
                             level_mask, lift_trace, operator_norm, random_blocks,
                             rep_tower_trace, unitarize_values)
from equifix.galgebra import GAlgebra, Tower, max_pair_defect
from equifix.groups import cyclic_group
from equifix.repcorrect import (equivariance_defect, lift_group_rep,
                                symmetrize, translation_source_action)
from equifix.scenarios import (Scenario, build_lift_scenario,
                               run_cocycle_trial, run_rep_trial,
                               random_unitary, trial_rng)

# (block sizes, order d of the cyclic group, permutation moved by the
# generator); g acts by the g-th power of that permutation.
CONFIGS = [((2, 3, 2, 3), 2, (2, 3, 0, 1)),
           ((2, 2, 3, 2, 1), 3, (1, 3, 2, 0, 4)),
           ((3, 1, 3, 1), 4, (2, 3, 0, 1))]

seeds = st.integers(0, 2 ** 32 - 1)
configs = st.sampled_from(CONFIGS)


def permuted_algebra(config, rng):
    """Z/d moving blocks by powers of a permutation, conjugated by random
    per-block unitaries V: the unitary at target p is V_p V_j*, with j the
    block moved there."""
    blocks, d, perm = config
    vs = [random_unitary(rng, b) for b in blocks]
    powers = [np.arange(len(blocks))]
    for _ in range(d - 1):
        powers.append(np.asarray(perm)[powers[-1]])
    unitaries = []
    for p_g in powers:
        src = np.argsort(p_g)
        unitaries.append(tuple(vs[p] @ vs[src[p]].conj().T
                               for p in range(len(blocks))))
    return GAlgebra(blocks, cyclic_group(d), np.array(powers), tuple(unitaries))


def orbit_tower(algebra):
    """Ideals growing by one orbit of blocks at a time, short of the last."""
    orbits = []
    for j in range(len(algebra.blocks)):
        orbit = frozenset(int(p) for p in algebra.perms[:, j])
        if orbit not in orbits:
            orbits.append(orbit)
    ideals = [frozenset()]
    for orbit in orbits[:-1]:
        ideals.append(ideals[-1] | orbit)
    return Tower(algebra=algebra, ideals=tuple(ideals))


@settings(max_examples=30, deadline=None)
@given(seeds, configs)
def test_act_and_norm_match_the_dense_route(seed, config):
    rng = np.random.default_rng(seed)
    alg = permuted_algebra(config, rng)
    act = dense_act(alg)
    x = random_blocks(alg.blocks, rng, lead=(3,))
    dense = embed(alg.blocks, x)
    assert np.max(np.abs(operator_norm(x) - operator_norm(dense))) <= 1e-12
    assert abs(operator_norm(x[1]) - np.linalg.norm(dense[1], 2)) <= 1e-12
    for g in range(alg.group.order):
        got = embed(alg.blocks, alg.act(g, x))
        assert np.max(operator_norm(got - act(g, dense))) <= 1e-12
    assert alg.action_defect(2, 0.0) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seeds, configs)
def test_project_matches_zeroing_the_ideal(seed, config):
    rng = np.random.default_rng(seed)
    tower = orbit_tower(permuted_algebra(config, rng))
    blocks = tower.algebra.blocks
    x = random_blocks(blocks, rng, lead=(2,))
    for m in range(tower.top + 1):
        xm = tower.project(m, 0, x)
        for n in range(m, tower.top + 1):
            live = [j for j in range(len(blocks)) if j not in tower.ideals[n]]
            got = embed(blocks, tower.project(n, m, xm), live)
            assert np.array_equal(got, embed(blocks, x) * level_mask(tower, n))


@settings(max_examples=30, deadline=None)
@given(seeds, configs, st.floats(0.0, 0.3))
def test_group_defects_and_averages_match_the_dense_route(seed, config, noise):
    rng = np.random.default_rng(seed)
    alg = permuted_algebra(config, rng)
    G = alg.group
    d = G.order
    action = translation_source_action(d)
    # Values near the unitaries, so that unitarization accepts most draws.
    u = random_blocks(alg.blocks, rng, lead=(d,)).map(
        lambda p: np.linalg.qr(p)[0])
    values = u + noise * 1e-3 * random_blocks(alg.blocks, rng, lead=(d,))
    dense = embed(alg.blocks, values)
    act = dense_act(alg)

    pairs = np.array([[operator_norm(dense[G.mult[g, h]] - dense[g] @ dense[h])
                       for h in range(d)] for g in range(d)])
    per_pair = np.array([[operator_norm(values[G.mult[g, h]] - values[g] @ values[h])
                          for h in range(d)] for g in range(d)])
    assert np.max(np.abs(per_pair - pairs)) <= 1e-12
    # The two routes round differently, so the first pair is checked on the
    # block route's own per-pair loop.
    worst, pair = max_pair_defect(values, G.mult)
    assert worst == per_pair.max()
    assert pair == divmod(int(np.argmax(per_pair)), d)

    loop = max(operator_norm(act(g, dense[x]) -
                             action.scalar[g, x] * dense[action.perm[g, x]])
               for g in range(d) for x in range(d))
    assert abs(equivariance_defect(values, alg.act, action) - loop) <= 1e-12

    want = np.zeros_like(dense)
    for x in range(d):
        for g in range(d):
            ginv = G.inv[g]
            want[x] += act(g, action.scalar[ginv, x] *
                           dense[action.perm[ginv, x]]) / d
    sym = symmetrize(values, alg.act, action)
    assert np.max(operator_norm(embed(alg.blocks, sym) - want)) <= 1e-12

    try:
        polar = unitarize_values(dense)
    except ValueError:
        polar = None
    if polar is not None:
        got = embed(alg.blocks, unitarize_values(values))
        assert np.max(operator_norm(got - polar)) <= 1e-12


def assert_traces_match(got, want):
    assert [row[0] for row in got] == [row[0] for row in want]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-14


@settings(max_examples=12, deadline=None)
@given(seeds, st.sampled_from([("translation", 3), ("translation", 4),
                               ("inversion", 3), ("inversion", 5)]),
       st.integers(4, 8))
def test_lift_trace_matches_the_dense_route(seed, source, levels):
    model, order = source
    s = Scenario(kind="lift", seed=seed, source={"model": model, "order": order},
                 tower={"levels": levels, "base": 0.2, "ratio": 0.2}, trials=1)
    tower, action, lift_seed = build_lift_scenario(s, trial_rng(seed, 0))
    res = lift_group_rep(tower, action, lift_seed, tol=1e-12)
    level, trace, eq, proj = lift_trace(tower, action, lift_seed)
    assert res.level == level
    assert_traces_match(res.correction.trace, trace)
    # The residuals are rounding-level figures (~1e-14 on the inversion
    # model), which the two routes round differently.
    assert abs(res.equivariance_residual - eq) <= 1e-13
    assert abs(res.projection_residual - proj) <= 1e-13


@settings(max_examples=12, deadline=None)
@given(seeds, st.sampled_from([{"kind": "cyclic", "params": 4},
                               {"kind": "dihedral", "params": 3},
                               {"kind": "symmetric", "params": 3}]),
       st.integers(2, 5), st.floats(0.001, 0.01))
def test_tower_rep_and_cocycle_traces_match_the_dense_route(seed, group, dim,
                                                            magnitude):
    for kind, runner, reference in (("rep", run_rep_trial, rep_tower_trace),
                                    ("cocycle", run_cocycle_trial,
                                     cocycle_tower_trace)):
        s = Scenario(kind=kind, seed=seed, group=group, dimension=dim,
                     magnitude=magnitude, trials=1, tower={"levels": 2})
        assert_traces_match(runner(s, 0).rows, reference(s, 0))
