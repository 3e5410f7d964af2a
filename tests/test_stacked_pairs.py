"""Property and guard tests for the correctors that take one stacked call
over all pairs of group elements: ``one_step`` and ``max_pair_defect``
chunked by ``SLAB_ENTRIES`` against one chunk and against the per-pair
loops, the stacked Fourier projection against its per-character loop, the
character table and the broadcast character checks against their loops,
the batched graded gates' messages, and ``SourceAction``'s stacked checks
against its loop; and guards on the memory and the ``eigh`` calls of the
log that ``one_step`` takes."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equifix import galgebra, repcorrect
from equifix.galgebra import GAlgebra, matrix_algebra, max_pair_defect
from equifix.graded import (GradedAlgebra, _validate_characters,
                            character_table, graded_correct,
                            regular_graded_model)
from equifix.groups import cyclic_group, make_group
from equifix.matfun import (Blocks, adjoint, exp_skew, operator_norm,
                            principal_log_unitary)
from equifix.repcorrect import (ApproxRep, DefectTooLargeError, SourceAction,
                                one_step, translation_source_action)
from equifix.scenarios import (exact_rep_values, perturb_rep_values,
                               random_skew, random_unitary, trial_rng)
from test_batched import GROUP_SPECS, first_max, reference_one_step

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
    units = tuple(tuple(rep[g] for rep in reps) for g in group.elements())
    return GAlgebra(blocks, group, ids, units)


def reference_pair_defect(values, group, act):
    pairs = {}
    for g in group.elements():
        for h in group.elements():
            twisted = values[h] if act is None else act(g, values[h])
            pairs[(g, h)] = operator_norm(values[group.mul(g, h)] - values[g] @ twisted)
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
    # one_step's (g, k) stack on symmetric(4) at dim 32 in one chunk: 576
    # slices of 32 x 32, 9.4 MB.  The batched eigh route this log replaced
    # peaked at 6.05 such stacks (57.1 MB); the series keeps z, z^2, z^3
    # and two work stacks.
    group, _, values = near_rep(0, {"kind": "symmetric", "params": 4}, 32, 0.01, None)
    v_adj = adjoint(values)
    m = v_adj[None] @ values[group.mult.T] @ v_adj[:, None]
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


# --- the graded path --------------------------------------------------------------

def reference_projection(algebra, g, x):
    """P_g(x) one character at a time, for one g and one matrix."""
    acc = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    for t in range(algebra.group.order):
        acc += np.conj(algebra.chars[t, g]) * algebra.dual_act(t, x)
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
            left[g, group.mul(g, h), h] = 1.0
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
                if abs(table[t, group.mul(g, h)] - table[t, g] * table[t, h]) > tol:
                    return False
    gram = table @ table.conj().T / n
    return bool(np.max(np.abs(gram - np.eye(n))) < tol)


@pytest.mark.parametrize("entries", [1, 50, None])
@pytest.mark.parametrize("spec", ABELIAN_SPECS)
def test_character_checks_match_their_loops(spec, entries):
    group = make_group(*spec)
    chars = character_table(group)
    algebra, _ = regular_graded_model(group)
    n = group.order
    bent = chars.copy()
    bent[n // 2, n - 1] *= np.exp(1e-9j)        # no longer multiplicative
    doubled = chars.copy()
    doubled[n - 1] = doubled[0]                 # not closed under products
    with slab(entries):
        assert np.array_equal(character_table(group), reference_character_table(group))
        assert np.array_equal(algebra._dual_mult(), reference_dual_mult(chars))
        for table in (chars, bent, doubled):
            for tol in (1e-10, 1e-12):
                assert _validate_characters(group, table, tol) == \
                    reference_validate(group, table, tol)
        if n > 1:
            with pytest.raises(ValueError, match="not closed"):
                reference_dual_mult(doubled)
            with pytest.raises(ValueError, match="not closed"):
                GradedAlgebra(group=group, dim=n, dual_unitaries=algebra.dual_unitaries,
                              chars=doubled)


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
        GradedAlgebra(group=group, dim=3, dual_unitaries=du, chars=algebra.chars)
        du[1] = np.diag([1.0, 1.0, -1.0]).astype(complex)
        with pytest.raises(ValueError, match=r"homomorphism at \(1,1\)"):
            GradedAlgebra(group=group, dim=3, dual_unitaries=du, chars=algebra.chars)


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
        graded_correct(algebra, values)


def test_graded_singular_message_names_the_first_singular_part():
    algebra, values, _ = graded_family(4, 6)
    values[1] = 1e-11 * values[1]
    values[2] = 0.0                                  # the worst, but later
    with pytest.raises(DefectTooLargeError,
                       match=r"component part at g=1 is numerically singular "
                             r"\(sigma_min = 1\.000e-11\)"):
        graded_correct(algebra, values)


@pytest.mark.parametrize("first", ["far", "singular"])
def test_graded_first_failing_value_decides_the_message(first):
    algebra, values, rng = graded_family(3, 7)
    far = values[1] @ exp_skew(0.5 * random_skew(rng, 3))
    values[1], values[2] = (far, 0.0) if first == "far" else (0.0, far)
    message = "g=1 is .* away" if first == "far" else "g=1 is numerically singular"
    with pytest.raises(DefectTooLargeError, match=message):
        graded_correct(algebra, values)


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
                if p[H.mul(x, y)] != H.mul(p[x], p[y]):
                    return f"perm[{g}] is not an automorphism of H"
                if abs(scalar[g, H.mul(x, y)] - scalar[g, x] * scalar[g, y]) > tol:
                    return f"scalar[{g}] is not multiplicative over H"
    for g in range(G.order):
        for h in range(G.order):
            gh = G.mul(g, h)
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
    H = cyclic_group(d)
    if model == "translation":
        G = H
        action = translation_source_action(d, G, H)
        perm, scalar = action.perm.copy(), action.scalar.copy()
    else:
        G = cyclic_group(2)
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
