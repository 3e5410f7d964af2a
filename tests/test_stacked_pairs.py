"""Property and guard tests for the correctors that take one stacked call
over all pairs of group elements: ``one_step`` and ``max_pair_defect``
chunked by ``SLAB_ENTRIES`` against one chunk and against the per-pair
loops, the stacked action ``GAlgebra.act`` over an index array of g, in
its outer and its paired form, against its loop over g, the partition,
equivariance and action defects and the group averages (``symmetrize``,
``stabilize_partition``, the Fourier projection) chunked against one
chunk, the stacked Fourier projection against its per-character loop,
the character table and the broadcast character checks against their
loops, the batched graded gates' messages, and
``SourceAction``'s stacked checks against its loop, the one-maximum
``partition_defect`` against the named defects; and guards on the memory
and the ``eigh`` calls of the log that ``one_step`` takes, on the memory
and the norm calls of ``measure_partition_seeds``, and on the SVDs of
``partition_defect``."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import (assert_readout, dense_act, embed, operator_norm,
                             random_blocks)
from equifix import galgebra, relations, repcorrect
from equifix.galgebra import (GAlgebra, matrix_algebra, max_pair_defect,
                              pair_chunks)
from equifix.graded import (GradedAlgebra, _character_rows, _dual_mult,
                            character_table, graded_correct,
                            regular_graded_model)
from equifix.groups import cyclic_group, make_group
from equifix.matfun import (Blocks, adjoint, exp_skew, largest_norm,
                            principal_log_unitary)
from equifix.relations import (_partition_stacks, measure_partition_seeds,
                               partition_defect, stabilize_partition)
from equifix.repcorrect import (ApproxRep, DefectTooLargeError, SourceAction,
                                equivariance_defect, one_step, symmetrize,
                                translation_source_action)
from equifix.scenarios import (SUITE, Scenario, build_lift_scenario,
                               build_rokhlin_scenario, exact_rep_values,
                               perturb_rep_values, random_skew,
                               random_unitary, trial_rng)
from test_batched import GROUP_SPECS, first_max, reference_one_step
from test_blocks import CONFIGS, orbit_tower, permuted_algebra

seeds = st.integers(0, 2 ** 32 - 1)
# One g per chunk, a few g per chunk (the last chunk short), one chunk.
slabs = st.sampled_from([1, 200, None])
ABELIAN_SPECS = [("cyclic", d) for d in range(1, 9)] + [
    ("product", (("cyclic", 2), ("cyclic", 2))),
    ("product", (("cyclic", 2), ("cyclic", 3))),
    ("product", (("cyclic", 2), ("cyclic", 4))),
    ("product", (("cyclic", 3), ("cyclic", 3)))]


def slab(entries):
    """SLAB_ENTRIES patched to ``entries`` (None: left as it is)."""
    if entries is None:
        return mock.patch.object(galgebra, "SLAB_ENTRIES", galgebra.SLAB_ENTRIES)
    return mock.patch.object(galgebra, "SLAB_ENTRIES", entries)


def near_rep(seed, spec, dim, magnitude, blocks):
    """A unitary family within about ``magnitude`` of an exact
    representation, exact at the identity: dense, or with ``blocks`` one
    exact representation per block, each perturbed."""
    rng = trial_rng(seed, 0)
    group = make_group(spec["kind"], spec["params"])
    if blocks is None:
        exact = exact_rep_values(spec, group, dim, rng)
        return group, rng, perturb_rep_values(exact, magnitude, rng)
    parts = []
    for b in sorted(set(blocks)):
        k = blocks.count(b)
        exact = np.stack([exact_rep_values(spec, group, b, rng) for _ in range(k)],
                         axis=1)
        skew = np.stack([[random_skew(rng, b) for _ in range(k)]
                         for _ in range(group.order)])
        skew[group.identity] = 0.0
        parts.append(exact @ exp_skew(magnitude * skew))
    return group, rng, Blocks(parts)


def algebra_for(spec, group, rng, dim, blocks):
    """A G-algebra the family's values live in, acting by an exact
    representation: on M_dim, or on each block by its own."""
    if blocks is None:
        return matrix_algebra(dim, group, list(exact_rep_values(spec, group, dim, rng)))
    reps = [exact_rep_values(spec, group, b, rng) for b in blocks]
    ids = np.tile(np.arange(len(blocks)), (group.order, 1))
    units = tuple(tuple(rep[g] for rep in reps) for g in range(group.order))
    return GAlgebra(blocks, group, ids, units)


def reference_pair_defect(values, group, act):
    pairs = {}
    for g in range(group.order):
        for h in range(group.order):
            twisted = values[h] if act is None else act(g, values[h])
            pairs[(g, h)] = operator_norm(values[group.mult[g, h]] - values[g] @ twisted)
    return first_max(pairs)


def same(a, b):
    if isinstance(a, Blocks):
        return all(np.array_equal(p, q) for p, q in zip(a.parts, b.parts))
    return np.array_equal(a, b)


layouts = st.sampled_from([None, (2, 3, 2), (1, 2, 1, 1)])


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(GROUP_SPECS), st.integers(1, 5), layouts,
       st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.05), slabs)
def test_chunked_one_step_is_bit_equal_to_one_chunk(seed, spec, dim, blocks,
                                                    magnitude, entries):
    group, _, values = near_rep(seed, spec, dim, magnitude, blocks)
    whole = one_step(ApproxRep(group, values)).values
    with slab(entries):
        chunked = one_step(ApproxRep(group, values)).values
    assert same(chunked, whole)
    if blocks is None:
        want = reference_one_step(ApproxRep(group, values))
        assert np.max(operator_norm(chunked - want)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(GROUP_SPECS), st.integers(1, 5), layouts,
       st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.1), st.booleans(), slabs)
def test_chunked_max_pair_defect_is_bit_equal_to_one_chunk(
        seed, spec, dim, blocks, magnitude, twisted, entries):
    group, rng, values = near_rep(seed, spec, dim, magnitude, blocks)
    act = algebra_for(spec, group, rng, dim, blocks).act if twisted else None
    whole = max_pair_defect(values, group.mult, act)
    with slab(entries):
        chunked = max_pair_defect(values, group.mult, act)
    assert chunked == whole
    worst, pair = reference_pair_defect(values, group, act)
    assert chunked == (worst, pair)


def test_one_step_takes_one_log_and_max_pair_defect_one_norm(monkeypatch):
    group = make_group("cyclic", 6)
    _, _, values = near_rep(0, {"kind": "cyclic", "params": 6}, 6, 0.01, None)
    calls = {"log": 0, "norm": 0}

    def counted(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    rep = ApproxRep(group, values)
    rep.defect()
    monkeypatch.setattr(repcorrect, "principal_log_unitary",
                        counted("log", repcorrect.principal_log_unitary))
    monkeypatch.setattr(galgebra, "largest_norm",
                        counted("norm", galgebra.largest_norm))
    one_step(rep)
    assert calls["log"] == 1
    calls["norm"] = 0
    max_pair_defect(values, group.mult)
    assert calls["norm"] == 1


def test_one_step_memory_stays_near_the_slab(monkeypatch):
    # symmetric(4) at dim 32: all 576 pairs at once are 589,824 entries
    # (9.4 MB) per stack, and the log holds several such stacks.  With a
    # slab of 2**16 entries two g go in a chunk, and the peak stays within
    # ten slabs' worth of complex entries.
    entries = 2 ** 16
    spec = {"kind": "symmetric", "params": 4}
    group, _, values = near_rep(0, spec, 32, 0.01, None)
    monkeypatch.setattr(galgebra, "SLAB_ENTRIES", entries)
    rep = ApproxRep(group, values)
    tracemalloc.start()
    try:
        one_step(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 16 * entries


def test_log_memory_stays_under_the_eigh_route():
    # 576 slices of 32 x 32 are 9.4 MB.  The batched eigh route this log
    # replaced peaked at 6.05 such stacks (57.1 MB); the series keeps z,
    # z^2, z^3 and two work stacks, and the skew part is made again after
    # it rather than kept through it.  The stacks: one_step's (g, k) stack
    # on symmetric(4) at dim 32 in one chunk, 47 of its slices (g or k the
    # identity) at degree 0, and unitaries exp(x) with ||x|| ~ 0.01, none
    # at degree 0.
    group, _, values = near_rep(0, {"kind": "symmetric", "params": 4}, 32, 0.01, None)
    v_adj = adjoint(values)
    re, im = np.random.default_rng(0).standard_normal((2, 576, 32, 32))
    x = (re + 1j * im) * (0.01 / 32)
    for m in (v_adj[None] @ values[group.mult.T] @ v_adj[:, None],
              exp_skew(x - adjoint(x))):
        tracemalloc.start()
        try:
            principal_log_unitary(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.05 * m.nbytes


def test_one_step_log_takes_no_eigh(eigh_counter):
    # Neither the log nor the exponential takes an eigensystem.
    group, _, values = near_rep(0, {"kind": "symmetric", "params": 3}, 6, 0.01, None)
    one_step(ApproxRep(group, values))
    assert eigh_counter == []


# --- the stacked action and the defects that take it ----------------------------

def looped_act(act, idx, a):
    """act(g, a) for each g of idx, stacked (part by part for Blocks); for
    an empty idx, the stack of act(0, a) cut to length zero."""
    images = [act(int(g), a) for g in idx] or [act(0, a)]
    if isinstance(a, Blocks):
        return Blocks(np.stack(ps) for ps in zip(*(e.parts for e in images)))[:len(idx)]
    return np.stack(images)[:len(idx)]


def outer(idx, lead):
    """idx with one axis per leading axis of the stack appended: the outer
    form of the action, (k, *lead, ...)."""
    return idx.reshape((-1,) + (1,) * len(lead))


def assert_paired(act, idx, a, lead):
    """act(idx, a) with idx broadcast against the leading axes of a is, at
    each leading index m, act(idx[m], a[m]), bit for bit."""
    got, idx = act(idx, a), np.broadcast_to(idx, lead)
    for m in np.ndindex(lead):
        assert same(got[m], act(int(idx[m]), a[m]))


def index_arrays(order):
    """Index arrays of g: empty, one g, repeated g, every g."""
    return st.lists(st.integers(0, order - 1), max_size=6).map(
        lambda ix: np.array(ix, dtype=np.intp))


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(GROUP_SPECS), st.integers(1, 4), layouts,
       st.sampled_from([(), (3,), (2, 3)]), st.data())
def test_stacked_act_is_bit_equal_to_the_loop(seed, spec, dim, blocks, lead, data):
    group, rng, _ = near_rep(seed, spec, dim, 0.0, blocks)
    algebra = algebra_for(spec, group, rng, dim, blocks)
    blocks = blocks or (dim,)
    a = random_blocks(blocks, rng, lead)
    idx = data.draw(index_arrays(group.order))
    # A one-block algebra also takes the dense form of the element.
    for x in [a] + ([a.parts[0][..., 0, :, :]] if len(blocks) == 1 else []):
        got = algebra.act(outer(idx, lead), x)
        assert same(got, looped_act(algebra.act, idx, x))
        # The dense reference takes index arrays too.
        dense = embed(blocks, x) if isinstance(x, Blocks) else x
        want = dense_act(algebra)(outer(idx, lead), dense)
        got = embed(blocks, got) if isinstance(x, Blocks) else got
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(GROUP_SPECS), st.integers(1, 4), layouts,
       st.sampled_from([(), (3,), (2, 3)]), st.data())
def test_paired_act_is_bit_equal_to_the_loop(seed, spec, dim, blocks, lead, data):
    # g of the stack's leading shape pairs each g with its element; g of a
    # trailing part of that shape, or an int, broadcasts over the rest.
    group, rng, _ = near_rep(seed, spec, dim, 0.0, blocks)
    algebra = algebra_for(spec, group, rng, dim, blocks)
    blocks = blocks or (dim,)
    a = random_blocks(blocks, rng, lead)
    shape = data.draw(st.sampled_from([lead, lead[-1:], ()]))
    idx = rng.integers(0, group.order, shape)
    for x in [a] + ([a.parts[0][..., 0, :, :]] if len(blocks) == 1 else []):
        assert_paired(algebra.act, idx, x, lead)
        dense = embed(blocks, x) if isinstance(x, Blocks) else x
        want = dense_act(algebra)(idx, dense)
        got = algebra.act(idx, x)
        got = embed(blocks, got) if isinstance(x, Blocks) else got
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(CONFIGS), st.sampled_from([(), (2,)]), st.data())
def test_stacked_act_on_tower_levels_is_bit_equal_to_the_loop(seed, config, lead,
                                                              data):
    rng = np.random.default_rng(seed)
    tower = orbit_tower(permuted_algebra(config, rng))
    x = random_blocks(tower.algebra.blocks, rng, lead)
    for n in range(tower.top + 1):
        level = tower.level(n)
        idx = data.draw(index_arrays(level.group.order))
        xn = tower.project(n, 0, x)
        assert same(level.act(outer(idx, lead), xn), looped_act(level.act, idx, xn))
        paired = rng.integers(0, level.group.order, lead)
        assert_paired(level.act, paired, xn, lead)


def monomial_algebra(config, rng, phases, dense_size):
    """``permuted_algebra`` with permutation matrices (times random phases
    when ``phases``) for the per-block V, so that every unitary has one
    nonzero per row, except random V on the blocks of ``dense_size``."""
    blocks, d, perm = config
    vs = [random_unitary(rng, b) if b == dense_size else
          np.eye(b)[rng.permutation(b)] * (np.exp(2j * np.pi * rng.random(b))
                                           if phases else 1.0)
          for b in blocks]
    powers = [np.arange(len(blocks))]
    for _ in range(d - 1):
        powers.append(np.asarray(perm)[powers[-1]])
    unitaries = [tuple(vs[p] @ vs[src[p]].conj().T for p in range(len(blocks)))
                 for src in map(np.argsort, powers)]
    return GAlgebra(blocks, cyclic_group(d), np.array(powers), tuple(unitaries))


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(CONFIGS), st.sampled_from([(), (3,), (2, 3)]),
       st.booleans(), st.booleans(), st.data())
def test_gather_act_matches_the_dense_route(seed, config, lead, phases, mixed, data):
    # Sizes whose unitaries have one nonzero per row act by a gather, the
    # others (here the 3 x 3 blocks, when mixed) by dense products.
    # Against W_g a W_g*: bit for bit on the gathered blocks where the
    # unitaries are permutations, to rounding elsewhere; on the algebra and
    # on every level of a tower restricted from it, for one g, g paired
    # with the stack and the outer g[:, None].
    rng = np.random.default_rng(seed)
    dense_size = 3 if mixed else None
    algebra = monomial_algebra(config, rng, phases, dense_size)
    sizes = sorted(set(config[0]))
    assert [i is None for i in algebra._idx] == [b == dense_size for b in sizes]
    assert phases or all(w is None for w in algebra._w)
    tower = orbit_tower(algebra)
    for alg in (algebra, *map(tower.level, range(1, tower.top + 1))):
        x = random_blocks(alg.blocks, rng, lead)
        dense, ref = embed(alg.blocks, x), dense_act(alg)
        gathered = embed(alg.blocks, Blocks(np.full(p.shape[-3:], p.shape[-1] != dense_size)
                                            for p in x.parts)).real == 1
        idx = data.draw(index_arrays(alg.group.order))
        for g in (int(rng.integers(alg.group.order)),
                  rng.integers(0, alg.group.order, lead), outer(idx, lead)):
            got, want = embed(alg.blocks, alg.act(g, x)), ref(g, dense)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
            assert phases or np.array_equal(got[..., gathered], want[..., gathered])


def partition_family(seed, family, d, magnitude, corank):
    """An algebra, a family of d seeds in it and the units to measure its
    sum against: a Rokhlin family of 2 x 2 blocks, rotated by ``magnitude``
    and with ``corank`` fixed coordinates, or a random dense one of 3 x 3
    matrices over one of ``GROUP_SPECS``."""
    rng = trial_rng(seed, 0)
    if family == "rokhlin":
        algebra, exact, fam = build_rokhlin_scenario(d, 2, magnitude, rng, corank)
        return algebra, fam, (None, exact.sum(axis=0))
    spec = GROUP_SPECS[d % len(GROUP_SPECS)]
    group = make_group(spec["kind"], spec["params"])
    algebra = algebra_for(spec, group, rng, 3, None)
    fam = rng.standard_normal((group.order, 3, 3)) + \
        1j * rng.standard_normal((group.order, 3, 3))
    return algebra, fam, (None,)


def exact_partition_defects(algebra, fam):
    """The five partition defects of a family (unit 1) by name, each the
    largest exact norm over its stacks."""
    exact = {}
    for name, x in _partition_stacks(algebra, fam, np.eye(algebra.dim)):
        exact[name] = largest_norm(x, exact.get(name, 0.0))[0]
    return exact


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(["rokhlin", "random"]), st.integers(1, 6),
       st.floats(0.0, 0.2), slabs)
def test_chunked_partition_defects_are_bit_equal_to_one_chunk(seed, family, d,
                                                               magnitude, entries):
    algebra, fam, units = partition_family(seed, family, d, magnitude, 1)
    for unit in units:
        whole = measure_partition_seeds(algebra, fam, unit)
        with slab(entries):
            assert measure_partition_seeds(algebra, fam, unit) == whole


@settings(max_examples=20, deadline=None)
@given(seeds, st.sampled_from(["translation", "inversion"]), st.integers(2, 5),
       st.floats(0.0, 0.3), slabs)
def test_chunked_equivariance_defect_is_bit_equal_to_one_chunk(seed, model, order,
                                                                noise, entries):
    # The inversion model acts by a group of order 2 on a source of order
    # ``order``: the chunks run over the acting group.
    s = Scenario(kind="lift", seed=seed, source={"model": model, "order": order},
                 tower={"levels": 3, "base": 0.2, "ratio": 0.2})
    rng = trial_rng(seed, 0)
    tower, source_action, lift_seed = build_lift_scenario(s, rng)
    for level in range(tower.top + 1):
        vals = tower.project(level, 0, lift_seed.values)
        vals = vals + noise * vals.map(lambda p: rng.standard_normal(p.shape))
        act = tower.level(level).act
        whole = equivariance_defect(vals, act, source_action)
        with slab(entries):
            assert equivariance_defect(vals, act, source_action) == whole


@settings(max_examples=20, deadline=None)
@given(seeds, st.sampled_from(["translation", "inversion"]), st.integers(2, 5),
       st.floats(0.0, 0.3), slabs)
def test_chunked_symmetrize_is_bit_equal_to_one_chunk(seed, model, order, noise,
                                                      entries):
    s = Scenario(kind="lift", seed=seed, source={"model": model, "order": order},
                 tower={"levels": 3, "base": 0.2, "ratio": 0.2})
    rng = trial_rng(seed, 0)
    tower, source_action, lift_seed = build_lift_scenario(s, rng)
    for level in range(tower.top + 1):
        vals = tower.project(level, 0, lift_seed.values)
        vals = vals + noise * vals.map(lambda p: rng.standard_normal(p.shape))
        act = tower.level(level).act
        whole = symmetrize(vals, act, source_action)
        with slab(entries):
            assert same(symmetrize(vals, act, source_action), whole)


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(1, 6), st.integers(1, 3), st.floats(0.0, 0.02), slabs)
def test_chunked_stabilize_partition_is_bit_equal_to_one_chunk(seed, d, block,
                                                               magnitude, entries):
    algebra, _, fam = build_rokhlin_scenario(d, block, magnitude, trial_rng(seed, 0))
    whole = stabilize_partition(algebra, fam)
    with slab(entries):
        chunked = stabilize_partition(algebra, fam)
    assert same(chunked.projections, whole.projections)
    assert (chunked.seed_defect, chunked.certificate, chunked.residuals) == \
        (whole.seed_defect, whole.certificate, whole.residuals)
    # The residuals are readouts of the exact defects.
    exact = exact_partition_defects(algebra, whole.projections)
    for name, value in whole.residuals.items():
        assert_readout(value, exact[name])


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(ABELIAN_SPECS), st.integers(1, 6), slabs)
def test_chunked_projection_is_bit_equal_to_one_chunk(seed, spec, count, entries):
    algebra, _ = regular_graded_model(make_group(*spec))
    rng = np.random.default_rng(seed)
    n = algebra.dim
    x = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    g = rng.integers(0, algebra.group.order, count)
    whole = algebra.projection(g, x), algebra.projection(int(g[0]), x[0])
    with slab(entries):
        chunked = algebra.projection(g, x), algebra.projection(int(g[0]), x[0])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(chunked, whole))


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(GROUP_SPECS), st.integers(1, 4), layouts,
       st.sampled_from([None, 0]), slabs)
def test_chunked_action_defect_is_bit_equal_to_one_chunk(seed, spec, dim, blocks,
                                                         config, entries):
    # config 0: a permuted algebra from the block tests instead of a spec's.
    if config is None:
        group, rng, _ = near_rep(seed, spec, dim, 0.0, blocks)
        algebra = algebra_for(spec, group, rng, dim, blocks)
    else:
        algebra = permuted_algebra(CONFIGS[seed % len(CONFIGS)],
                                   np.random.default_rng(seed))
    whole = algebra.action_defect(2, 0.0)
    with slab(entries):
        assert algebra.action_defect(2, 0.0) == whole


def test_partition_defects_memory_stays_near_the_slab(monkeypatch):
    # cyclic(32) on M_32: the (d, d, n, n) stack of all pairs is 16.8 MB.
    # With a slab of 2**16 entries two g go in a chunk, and the peak stays
    # within six slabs' worth of complex entries (6.3 MB).
    entries = 2 ** 16
    monkeypatch.setattr(galgebra, "SLAB_ENTRIES", entries)
    algebra, _, seeds = build_rokhlin_scenario(32, 1, 1e-4, trial_rng(0, 0))
    tracemalloc.start()
    try:
        measure_partition_seeds(algebra, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 16 * entries < seeds.nbytes * len(seeds)


@pytest.mark.parametrize("entries", [1, 200, None])
def test_partition_defects_take_two_norms_per_chunk(monkeypatch, entries):
    # Orthogonality and equivariance take one readout per chunk of g each,
    # and the unit sum, idempotency and self-adjointness one each: 5 calls
    # in one chunk on cyclic(6), where one norm per g took 2d + 3 = 15.
    algebra, _, seeds = build_rokhlin_scenario(6, 2, 0.01, trial_rng(1, 0))
    calls, real = [], relations.readout_norm

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(relations, "readout_norm", counted)
    with slab(entries):
        measure_partition_seeds(algebra, seeds)
        assert len(calls) == 2 * len(pair_chunks(seeds, 6)) + 3
    if entries is None:
        assert len(calls) == 5


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(["rokhlin", "random"]), st.integers(1, 6),
       st.floats(0.0, 0.2), st.integers(0, 1))
def test_partition_defect_is_bit_equal_to_the_largest_named_defect(seed, family, d,
                                                                   magnitude, corank):
    # A Rokhlin family at corank 1 sums to less than 1, so unit_sum (near 1)
    # floors every later stack; at corank 0 the other four defects set it.
    # The named defects are readouts of the exact ones.
    algebra, fam, _ = partition_family(seed, family, d, magnitude, corank)
    exact = exact_partition_defects(algebra, fam)
    for name, value in measure_partition_seeds(algebra, fam).items():
        assert_readout(value, exact[name])
    for entries in (1, 200, None):
        with slab(entries):
            assert partition_defect(algebra, fam) == max(exact.values())


def test_partition_defect_of_zero_and_non_finite_families(svd_counter):
    algebra, _, seeds = build_rokhlin_scenario(3, 2, 0.01, trial_rng(0, 0))
    zero = np.zeros_like(seeds)
    # Every stack of the zero family is exactly zero but its unit sum, 0 - 1.
    assert measure_partition_seeds(algebra, zero) == {
        "projection": 0.0, "self_adjoint": 0.0, "orthogonality": 0.0,
        "equivariance": 0.0, "unit_sum": 1.0}
    svd_counter.clear()
    assert partition_defect(algebra, zero) == 1.0
    assert svd_counter == [(6, 6)]            # the unit sum's one slice
    for bad in (np.nan, np.inf, -np.inf):
        fam = seeds.copy()
        fam[1, 2, 0] = bad
        raised = []
        for f in (measure_partition_seeds, partition_defect):
            with pytest.raises(ValueError) as exc:
                f(algebra, fam)
            raised.append(str(exc.value))
        assert raised == ["matrix has non-finite entries"] * 2


def test_partition_defect_svds_few_slices(svd_counter):
    # The tracial suite scenario's seeds sum to a corner, so unit_sum
    # (about 1) is SVD'd alone and floors the other four stacks.
    s = Scenario.from_dict(SUITE["tracial"][1], seed=0)
    d = int(s.group["params"])
    block = (s.dimension - s.corner_corank) // d
    algebra, _, seeds = build_rokhlin_scenario(d, block, s.magnitude, trial_rng(0, 0),
                                               s.corner_corank)
    svd_counter.clear()
    assert partition_defect(algebra, seeds) >= 1
    assert svd_counter == [(algebra.dim, algebra.dim)]
    # rokhlin-cyclic4 (dimension 24) across its magnitude range: the five
    # named maxima SVD 8-21 slices here, the one maximum at most 5.
    for trial in range(3):
        for magnitude in (0.01, 0.015, 0.02):
            algebra, _, seeds = build_rokhlin_scenario(4, 6, magnitude,
                                                       trial_rng(trial, 0))
            svd_counter.clear()
            partition_defect(algebra, seeds)
            assert sum(math.prod(shape[:-2]) for shape in svd_counter) <= 5


# --- the graded path --------------------------------------------------------------

def reference_projection(algebra, g, x):
    """P_g(x) one character at a time, for one g and one matrix."""
    acc = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    for t in range(algebra.group.order):
        u = algebra.dual_unitaries[t]
        acc += np.conj(algebra.chars[t, g]) * (u @ x @ u.conj().T)
    return acc / algebra.group.order


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(ABELIAN_SPECS), st.integers(1, 6))
def test_stacked_projection_is_bit_equal_to_the_character_loop(seed, spec, count):
    group = make_group(*spec)
    algebra, _ = regular_graded_model(group)
    rng = np.random.default_rng(seed)
    n = algebra.dim
    x = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    g = rng.integers(0, group.order, count)
    want = np.stack([reference_projection(algebra, int(g[i]), x[i])
                     for i in range(count)])
    assert np.array_equal(algebra.projection(g, x), want)
    assert np.array_equal(algebra.projection(int(g[0]), x[0]), want[0])


def reference_character_table(group, tol=1e-10):
    """character_table as it was computed one (t, g) pair at a time."""
    n = group.order
    left = np.zeros((n, n, n))
    for g in range(n):
        for h in range(n):
            left[g, group.mult[g, h], h] = 1.0
    rng = np.random.default_rng(7)
    for _ in range(8):
        coeffs = rng.standard_normal(n)
        vals, vecs = np.linalg.eig(np.tensordot(coeffs, left, axes=(0, 0)))
        chars = np.empty((n, n), dtype=complex)
        ok = True
        for t in range(n):
            v = vecs[:, t] / np.linalg.norm(vecs[:, t])
            for g in range(n):
                lam = v.conj() @ (left[g] @ v)
                if abs(abs(lam) - 1) > 1e-6:
                    ok = False
                    break
                order = group.element_order(g)
                k = int(np.round(np.angle(lam) * order / (2 * np.pi))) % order
                chars[t, g] = np.exp(2j * np.pi * k / order)
            if not ok:
                break
        if not ok:
            continue
        rows = []
        for t in range(n):
            if not any(np.max(np.abs(chars[t] - r)) < 1e-8 for r in rows):
                rows.append(chars[t])
        if len(rows) != n:
            continue
        table = np.array(sorted(rows, key=lambda r: tuple(np.round(np.angle(r), 9))))
        triv = np.argmin([np.max(np.abs(r - 1)) for r in table])
        table[[0, triv]] = table[[triv, 0]]
        if reference_validate(group, table, tol):
            return table
    raise RuntimeError("failed to compute a valid character table")


def reference_dual_mult(chars):
    n = len(chars)
    dm = np.empty((n, n), dtype=np.intp)
    for s in range(n):
        for t in range(n):
            prod = chars[s] * chars[t]
            hits = [r for r in range(n) if np.max(np.abs(chars[r] - prod)) < 1e-8]
            if len(hits) != 1:
                raise ValueError("character table is not closed under products")
            dm[s, t] = hits[0]
    return dm


def reference_validate(group, table, tol):
    n = group.order
    for t in range(n):
        for g in range(n):
            for h in range(n):
                if abs(table[t, group.mult[g, h]] - table[t, g] * table[t, h]) > tol:
                    return False
    gram = table @ table.conj().T / n
    return bool(np.max(np.abs(gram - np.eye(n))) < tol)


# Abelian groups from each of make_group's constructors: the cyclic groups
# up to order 24, products of two and of three cyclic groups, and the
# dihedral and symmetric groups that are abelian.
TABLE_SPECS = [("cyclic", d) for d in range(1, 25)] + [
    ("product", (("cyclic", a), ("cyclic", b)))
    for a in (2, 3, 4, 6) for b in (2, 3, 4, 6)] + [
    ("product", (("product", (("cyclic", 2), ("cyclic", 2))), ("cyclic", 2))),
    ("dihedral", 1), ("dihedral", 2), ("symmetric", 1), ("symmetric", 2)]


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_character_table_is_bit_equal_to_the_eigenvector_route(spec):
    # The integer construction gives the diagonalization's exact roots, in
    # its order: the graded_data character order stays the same.
    group = make_group(*spec)
    assert character_table(group).tobytes() == \
        reference_character_table(group).tobytes()


@pytest.mark.parametrize("entries", [1, 50, None])
@pytest.mark.parametrize("spec", ABELIAN_SPECS)
def test_character_checks_match_their_loops(spec, entries):
    # The exact lookup of the dual multiplication gives the table the
    # float loop matches to 1e-8, and the chunked homomorphism check
    # passes the regular model at every slab size.
    group = make_group(*spec)
    with slab(entries):
        algebra, _ = regular_graded_model(group)
    _, exps, top = _character_rows(group)
    assert np.array_equal(_dual_mult(exps, top), reference_dual_mult(algebra.chars))


@pytest.mark.parametrize("entries", [1, None])
def test_dual_action_failure_names_the_first_pair(entries):
    # A dual unitary that is right up to a phase passes.  A unitary that
    # is not in the dual action at character 1 fails first at (1, 1): the
    # pairs (0, t) and (1, 0) involve the identity at character 0.
    group = cyclic_group(3)
    algebra, _ = regular_graded_model(group)
    du = algebra.dual_unitaries.copy()
    du[2] = 1j * du[2]
    with slab(entries):
        GradedAlgebra(group=group, dual_unitaries=du)
        du[1] = np.diag([1.0, 1.0, -1.0]).astype(complex)
        with pytest.raises(ValueError, match=r"homomorphism at \(1,1\)"):
            GradedAlgebra(group=group, dual_unitaries=du)


def graded_family(order, seed):
    group = cyclic_group(order)
    algebra, left = regular_graded_model(group)
    return algebra, left.copy(), trial_rng(seed, 0)


def test_graded_gap_message_names_the_first_far_value():
    algebra, values, rng = graded_family(4, 5)
    skew = random_skew(rng, 4)
    values[1] = values[1] @ exp_skew(0.2 * skew)
    values[3] = values[3] @ exp_skew(0.6 * skew)     # the worst, but later
    gap = operator_norm(values[1] - algebra.projection(1, values[1]))
    with pytest.raises(DefectTooLargeError,
                       match=rf"value at g=1 is {gap:.6g} away from its grading"):
        graded_correct(algebra, values, tol=1e-12)


def test_graded_singular_message_names_the_first_singular_part():
    algebra, values, _ = graded_family(4, 6)
    values[1] = 1e-11 * values[1]
    values[2] = 0.0                                  # the worst, but later
    with pytest.raises(DefectTooLargeError,
                       match=r"component part at g=1 is numerically singular "
                             r"\(sigma_min = 1\.000e-11\)"):
        graded_correct(algebra, values, tol=1e-12)


@pytest.mark.parametrize("first", ["far", "singular"])
def test_graded_first_failing_value_decides_the_message(first):
    algebra, values, rng = graded_family(3, 7)
    far = values[1] @ exp_skew(0.5 * random_skew(rng, 3))
    values[1], values[2] = (far, 0.0) if first == "far" else (0.0, far)
    message = "g=1 is .* away" if first == "far" else "g=1 is numerically singular"
    with pytest.raises(DefectTooLargeError, match=message):
        graded_correct(algebra, values, tol=1e-12)


# --- SourceAction ---------------------------------------------------------------

def reference_source_action_check(G, H, perm, scalar):
    """The per-pair loops SourceAction ran, after its shape and modulus
    checks; the message of the first failure, or None."""
    tol = 1e-12
    for g in range(G.order):
        p = perm[g]
        if sorted(p.tolist()) != list(range(H.order)):
            return f"perm[{g}] is not a permutation of H"
        for x in range(H.order):
            for y in range(H.order):
                if p[H.mult[x, y]] != H.mult[p[x], p[y]]:
                    return f"perm[{g}] is not an automorphism of H"
                if abs(scalar[g, H.mult[x, y]] - scalar[g, x] * scalar[g, y]) > tol:
                    return f"scalar[{g}] is not multiplicative over H"
    for g in range(G.order):
        for h in range(G.order):
            gh = G.mult[g, h]
            if np.any(perm[gh] != perm[g][perm[h]]):
                return "perm is not a homomorphism in g"
            if np.max(np.abs(scalar[gh] - scalar[g][perm[h]] * scalar[h])) > tol:
                return "scalar fails the composition rule"
    return None


def source_action_message(G, H, perm, scalar):
    try:
        SourceAction(group=G, source=H, perm=perm, scalar=scalar)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(seeds, st.sampled_from(["translation", "inversion"]), st.integers(2, 6),
       st.lists(st.sampled_from(["swap", "repeat", "phase", "conjugate",
                                 "automorphism"]), max_size=3))
def test_source_action_checks_match_the_loop(seed, model, d, corruptions):
    rng = np.random.default_rng(seed)
    if model == "translation":
        action = translation_source_action(d)
        G, H = action.group, action.source
        perm, scalar = action.perm.copy(), action.scalar.copy()
    else:
        G, H = cyclic_group(2), cyclic_group(d)
        perm = np.stack([np.arange(d), (-np.arange(d)) % d])
        scalar = np.ones((2, d), dtype=complex)
    g = rng.integers(0, G.order)       # corruptions meet at one g
    for kind in corruptions:
        x, y = rng.integers(0, d), rng.integers(0, d)
        if kind == "swap":
            perm[g, [x, y]] = perm[g, [y, x]]
        elif kind == "repeat":
            perm[g, x] = perm[g, y]
        elif kind == "phase":
            scalar[g, x] *= np.exp(2j * np.pi * rng.integers(1, d) / d)
        elif kind == "conjugate":
            scalar[g] = scalar[g].conj()
        else:                       # multiplication by a unit mod d
            units = [k for k in range(1, d) if np.gcd(k, d) == 1]
            perm[g] = (np.arange(d) * rng.choice(units)) % d
    assert source_action_message(G, H, perm, scalar) == \
        reference_source_action_check(G, H, perm, scalar)


def test_source_action_names_each_failure():
    c2, c3 = cyclic_group(2), cyclic_group(3)
    ones = np.ones((2, 3), dtype=complex)
    ids = np.arange(3)
    zeta = np.exp(2j * np.pi * ids / 3)
    cases = [
        (c2, np.stack([ids, [0, 0, 2]]), ones, r"perm\[1\] is not a permutation"),
        (c2, np.stack([ids, [1, 0, 2]]), ones, r"perm\[1\] is not an automorphism"),
        (c2, np.stack([ids, ids]), np.stack([ones[0], [1, -1, 1]]),
         r"scalar\[1\] is not multiplicative"),
        (c2, np.stack([ids, ids]), np.stack([ones[0], zeta]),
         "scalar fails the composition rule"),
    ]
    for G, perm, scalar, message in cases:
        with pytest.raises(ValueError, match=message):
            SourceAction(group=G, source=c3, perm=perm, scalar=scalar)
    # perm[1] fails to be an automorphism only at (x, y) = (1, 1), after
    # scalar[1] fails to be multiplicative at (0, 0).
    c4 = cyclic_group(4)
    with pytest.raises(ValueError, match=r"scalar\[1\] is not multiplicative"):
        SourceAction(group=c2, source=c4, perm=np.stack([np.arange(4), [0, 1, 3, 2]]),
                     scalar=np.array([[1, 1, 1, 1], [-1, 1, 1, 1]], dtype=complex))
    # perm fails to be a homomorphism first at (g, h) = (1, 2); with
    # scalar[0] a nontrivial character the composition rule fails at (0, 0).
    inv = (-ids) % 3
    perm = np.stack([ids, inv, ids])
    with pytest.raises(ValueError, match="perm is not a homomorphism in g"):
        SourceAction(group=c3, source=c3, perm=perm,
                     scalar=np.ones((3, 3), dtype=complex))
    with pytest.raises(ValueError, match="scalar fails the composition rule"):
        SourceAction(group=c3, source=c3, perm=perm,
                     scalar=np.stack([zeta, np.ones(3), np.ones(3)]))
