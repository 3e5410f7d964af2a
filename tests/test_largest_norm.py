"""Property tests for the screened norm kernel ``largest_norm`` against a
full batched SVD of every slice, also at the cut and at the bounds of its
per-slice and one-pass early exits, cases for its exact floor (the slice
of largest Frobenius norm, SVD'd first) and its Schatten-8 screen, guard
tests that the correctors' gates take no SVD on valid input yet still
reject input just over them with the same message, the exactness gates of
the cocycle and the lift's phi among them (a pinned quotient's defect is
measured exactly, once, and rejected just over its bound), and count
tests that a corrector's last step takes no per-slice screen in its gates,
no a^2 or series in its log and no power stack in its exp."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import per_part_largest_norm, trivial_algebra
from equifix import matfun, repcorrect
from equifix.cocycles import coboundary, cocycle, one_step_cobound, trivialize
from equifix.galgebra import Tower, matrix_algebra, max_pair_defect, pair_chunks
from equifix.groups import cyclic_group
from equifix.matfun import (_UNDERFLOW, EXP_CAP, Blocks, _screen, adjoint,
                            exp_skew, largest_norm, principal_log_unitary)
from equifix.repcorrect import (ApproxRep, DefectTooLargeError, correct_to_rep,
                                equivariance_defect, lift_group_rep, one_step,
                                translation_source_action)
from equifix.scenarios import (Scenario, build_lift_scenario, exact_rep_values,
                               group_of, perturb_rep_values, random_skew,
                               random_unitary, trial_rng)

seeds = st.integers(0, 2 ** 32 - 1)
# Slice kinds: generic, rank one (||x|| = ||x||_F, the edge of the screen),
# exact zero, rounding level, and huge entries whose squares overflow.
kinds = st.sampled_from(["generic", "rank1", "zero", "rounding", "huge"])


def draw_slice(rng, kind, m, n):
    x = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    if kind == "rank1":
        x = np.outer(x[:, 0], x[0].conj())
    scale = {"generic": 1.0, "rank1": 1.0, "zero": 0.0, "rounding": 1e-16,
             "huge": 1e200}[kind]
    return scale * x


def draw_stack(rng, kinds, m, n, ties):
    """A stack of slices of the given kinds; with ``ties`` later slices
    repeat earlier ones exactly."""
    a = np.stack([draw_slice(rng, k, m, n) for k in kinds]) if kinds else \
        np.zeros((0, m, n), dtype=complex)
    if ties and len(a) > 1:
        a[rng.integers(1, len(a))::2] = a[0]
    return a


def reference(norms, floor):
    """What largest_norm must return, from the full per-slice norms."""
    if norms.size == 0:
        return floor, None
    i = int(np.argmax(norms))
    top = float(norms.flat[i])
    return (top, i) if top > floor else (floor, None)


def full_norms(a):
    """Largest singular value of every slice: one SVD of the whole stack."""
    if a.shape[-1] * a.shape[-2] == 0 or a.size == 0:
        return np.zeros(a.shape[:-2])
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def floors(norms, rng):
    """Floors on both sides of the largest norm, at it, and well below."""
    top = float(norms.max()) if norms.size else 1.0
    return [-1.0, 0.0, top, top * (1 - 1e-12), top * (1 + 1e-12),
            float(rng.choice(norms.ravel())) if norms.size else 0.5, 1e-10]


@settings(max_examples=150, deadline=None)
@given(seeds, st.lists(kinds, max_size=7), st.integers(1, 5), st.integers(1, 5),
       st.booleans())
def test_stack_matches_full_svd(seed, slice_kinds, m, n, ties):
    rng = np.random.default_rng(seed)
    a = draw_stack(rng, slice_kinds, m, n, ties)
    norms = full_norms(a)
    for floor in floors(norms, rng):
        assert largest_norm(a, floor) == reference(norms, floor)
    if len(a):
        single = full_norms(a[:1])
        for floor in floors(single, rng):
            got = largest_norm(a[0], floor)
            want = reference(single, floor)
            assert got == want
    # Leading axes are kept: the index is flat over them.
    if len(a) and len(a) % 2 == 0:
        b = a.reshape(2, len(a) // 2, m, n)
        assert largest_norm(b, -1.0) == reference(full_norms(b), -1.0)


# Slices at the cut, all of operator norm c times at most 1: "peak" has
# singular values (c, c t_2, ...), so every peak slice ties the largest norm
# up to rounding; "flat" is c times an isometry, which the Frobenius and
# Schatten-8 bounds over-read most; "rank1" is where both bounds are exact.
cut_kinds = st.sampled_from(["peak", "flat", "rank1", "zero", "generic"])


def draw_at_cut(rng, kind, m, n, c):
    k = min(m, n)
    if kind == "generic":
        x = draw_slice(rng, "generic", m, n)
        return c * rng.uniform(0.5, 1.0) * x / full_norms(x)
    s = {"peak": np.concatenate([[1.0], rng.uniform(0.0, 1.0, k - 1)]),
         "flat": np.ones(k), "rank1": np.eye(k)[0], "zero": np.zeros(k)}[kind]
    u = random_unitary(rng, m)[:, :k]
    v = random_unitary(rng, n)[:, :k]
    return c * (u * s) @ v.conj().T


def cut_floors(norms):
    """Every computed norm and the floats on either side of it."""
    out = [-1.0, 0.0]
    for t in np.unique(norms):
        out += [float(t), float(np.nextafter(t, -np.inf)), float(np.nextafter(t, np.inf))]
    return out


@settings(max_examples=150, deadline=None)
@given(seeds, st.lists(cut_kinds, min_size=1, max_size=8), st.integers(1, 6),
       st.integers(1, 6), st.sampled_from([1.0, 1e-160, 1e150]), st.booleans(),
       st.integers(1, 4))
def test_stack_at_the_cut_matches_full_svd(seed, slice_kinds, m, n, c, ties, slab):
    """Near ties, rank one, zero, wide and tall slices, with entries whose
    squares underflow (1e-160) or come near overflow (1e150), at floors on
    and beside every slice's norm, and in slabs that pass the running
    maximum on as the floor (ties across slabs go to the earlier one)."""
    rng = np.random.default_rng(seed)
    a = np.stack([draw_at_cut(rng, k, m, n, c) for k in slice_kinds])
    if ties and len(a) > 1:
        a[rng.integers(1, len(a))::2] = a[rng.integers(len(a))]
    norms = full_norms(a)
    for floor in cut_floors(norms):
        assert largest_norm(a, floor) == reference(norms, floor)
    worst, first = -1.0, None
    for start in range(0, len(a), slab):
        worst, i = largest_norm(a[start:start + slab], worst)
        first = first if i is None else start + i
    assert (worst, first) == reference(norms, -1.0)


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(0, 4), st.lists(st.integers(1, 4), min_size=1, max_size=4),
       st.lists(kinds, min_size=1, max_size=6), st.booleans())
def test_blocks_match_full_svd(seed, count, sizes, block_kinds, ties):
    """Mixed block sizes: an element's norm is its largest block norm."""
    rng = np.random.default_rng(seed)
    parts = []
    for b in sorted(set(sizes)):
        k = sizes.count(b)
        p = np.stack([np.stack([draw_slice(rng, block_kinds[(i + j) % len(block_kinds)],
                                           b, b) for j in range(k)])
                      for i in range(count)]) if count else \
            np.zeros((0, k, b, b), dtype=complex)
        if ties and count > 1:
            p[1] = p[0]
        parts.append(p)
    x = Blocks(parts)
    norms = np.max([full_norms(p).max(axis=-1) for p in parts], axis=0)
    for floor in floors(norms, rng):
        assert largest_norm(x, floor) == reference(norms, floor)
    if count:
        single = np.array(norms[count - 1])
        for floor in floors(single, rng):
            assert largest_norm(x[count - 1], floor) == reference(single, floor)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 5), st.integers(1, 4),
       st.sampled_from([np.nan, np.inf, -np.inf, 1j * np.inf]))
def test_non_finite_entries_are_rejected(seed, count, n, bad):
    rng = np.random.default_rng(seed)
    a = draw_stack(rng, ["generic"] * count, n, n, False)
    a[rng.integers(count), rng.integers(n), rng.integers(n)] = bad
    for floor in (-1.0, 0.0, 1e300, np.inf):
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            largest_norm(a, floor)
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            largest_norm(Blocks([a[:, None]]), floor)


def test_empty_stacks():
    assert largest_norm(np.zeros((0, 3, 3)), 0.5) == (0.5, None)
    assert largest_norm(np.zeros((0, 3, 3)), -1.0) == (-1.0, None)
    assert largest_norm(np.zeros((2, 0, 0)), -1.0) == (0.0, 0)
    assert largest_norm(Blocks([np.zeros((0, 2, 3, 3))]), 0.0) == (0.0, None)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 6), st.integers(1, 5),
       st.floats(0.5, 2.0), st.booleans())
def test_gate_rejection_names_the_worst_slice(seed, count, n, ratio, rank1):
    """exp_skew's gate on stacks whose skewness defects straddle the
    tolerance: the message and slice are those of the full SVD."""
    rng = np.random.default_rng(seed)
    tol = 1e-10
    x = np.stack([random_skew(rng, n) for _ in range(count)])
    g = draw_stack(rng, ["generic"] * count, n, n, False)
    h = g[..., :1] @ adjoint(g[..., :1]) if rank1 else g + adjoint(g)
    h *= (tol * ratio * rng.uniform(0.5, 1.0, count) / 2 /
          full_norms(h))[:, None, None]
    x = x + h
    norms = full_norms(x + adjoint(x))
    worst, i = reference(norms, tol)
    if i is None:
        exp_skew(x)
    else:
        with pytest.raises(ValueError) as err:
            exp_skew(x)
        assert str(err.value) == (f"input is not skew-Hermitian: ||x + x*|| = "
                                  f"{worst:.3e} at slice ({i},)")


# --- the one-part route against the per-part kernel ---------------------------

def both_kernels(x, floor):
    """largest_norm and its per-part reference at one floor: each result,
    or each ValueError's message."""
    out = []
    for kernel in (largest_norm, per_part_largest_norm):
        try:
            out.append(kernel(x, floor))
        except ValueError as exc:
            out.append(str(exc))
    return out


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(0, 4), st.lists(st.integers(1, 4), min_size=1, max_size=3,
                                          unique=True),
       st.lists(kinds, min_size=1, max_size=6), st.booleans(), st.booleans(),
       st.sampled_from([None, np.nan, -np.inf, 1j * np.inf]), st.integers(1, 3))
def test_kernel_matches_its_per_part_reference(seed, count, sizes, slice_kinds,
                                              dense, ties, bad, slab):
    """Dense stacks (wide and tall too), Blocks of one size and of mixed
    sizes, empty stacks, all-zero ones, ties, and a non-finite entry (the
    same ValueError): at floors -1 and 0, a gate tolerance, at and beside
    the largest norm, and as the running maximum of a loop over slabs, the
    value and first index are those of the per-part kernel, bit for bit."""
    rng = np.random.default_rng(seed)
    draw = [slice_kinds[j % len(slice_kinds)] for j in range(4 * count)]
    if dense:
        x = draw_stack(rng, draw[:count], sizes[0], sizes[-1], ties)
        entries = [x]
    else:
        entries = []
        for b in sorted(sizes):
            k = int(rng.integers(1, 3))
            p = draw_stack(rng, draw[:count * k], b, b, False).reshape(count, k, b, b)
            if ties and count > 1:
                p[rng.integers(1, count)::2] = p[0]
            entries.append(p)
        top = max((float(np.abs(p).max()) for p in entries if p.size), default=0.0)
        if ties and count > 1 and len(entries) > 1 and top < 1e100:
            # A norm t over all others, a power of 2 so that t times the
            # identity has norm t exactly, at the last element in the first
            # size and at element 0 in the last: element 0 wins the tie.
            t = 2.0 ** math.ceil(math.log2(1 + 8 * top))
            for p, e in ((entries[0], -1), (entries[-1], 0)):
                p[e, 0] = t * np.eye(p.shape[-1])
            assert per_part_largest_norm(Blocks(entries), -1.0) == (t, 0)
        x = Blocks(entries)
    if bad is not None and count:
        p = entries[rng.integers(len(entries))]
        p[np.unravel_index(rng.integers(p.size), p.shape)] = bad
    top = both_kernels(x, -1.0)
    assert top[0] == top[1]
    floors = [-1.0, 0.0, 1e-10, 0.5]
    if isinstance(top[0], tuple):
        floors += beside(top[0][0]) + [top[0][0] * (1 + 1e-12)]
    for floor in floors:
        got, want = both_kernels(x, floor)
        assert got == want
    runs = []
    for kernel in (largest_norm, per_part_largest_norm):
        worst, first = -1.0, None
        try:
            for start in range(0, count, slab):
                worst, i = kernel(x[start:start + slab], worst)
                first = first if i is None else start + i
        except ValueError as exc:
            worst, first = str(exc), None
        runs.append((worst, first))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 0), (3, 0, 2), (0, 0, 0),
                                   (3, 2), (0, 2, 1, 1), (2, 3, 2, 2)])
def test_empty_and_zero_stacks_match_the_per_part_reference(shape):
    a = np.zeros(shape, dtype=complex)
    xs = [a] + ([Blocks([a]), Blocks([a, np.zeros(shape[:-2] + (3, 3))])]
                if len(shape) == 4 else [])
    for x in xs:
        for floor in (-1.0, 0.0, 1e-10, 0.5):
            got, want = both_kernels(x, floor)
            assert got == want


# --- the exact floor ----------------------------------------------------------

def test_tie_with_the_largest_frobenius_slice_goes_to_the_earlier_slice():
    # Slice 2 has the largest Frobenius norm and is SVD'd first; slice 1
    # ties it in operator norm (1), and the earlier slice wins.
    a = np.stack([np.diag([0.5, 0.0]), np.diag([1.0, 0.0]),
                  np.diag([1.0, 0.75]), np.diag([1.0, 0.5])]).astype(complex)
    norms = full_norms(a)
    assert norms[1] == norms[2] == norms[3] == 1.0
    for floor in (-1.0, 0.0, 0.5):
        assert largest_norm(a, floor) == reference(norms, floor) == (1.0, 1)
    assert largest_norm(a, 1.0) == (1.0, None)


@pytest.mark.parametrize("tie", [False, True])
def test_blocks_whose_largest_frobenius_slice_is_in_a_later_size(tie):
    # Element 1's 3 x 3 block has the largest Frobenius norm (sqrt(3)) but
    # operator norm 1.  The largest norm is element 0's 1 x 1 block, 1.5,
    # or with ``tie`` 1, which ties element 1 and element 0 wins.
    one = np.array([[[[1.0 if tie else 1.5]]], [[[0.5]]]], dtype=complex)
    three = np.stack([0.1 * np.eye(3), np.eye(3)])[:, None].astype(complex)
    x = Blocks([one, three])
    norms = np.max([full_norms(p).max(axis=-1) for p in x.parts], axis=0)
    for floor in (-1.0, 0.0, 0.9):
        assert largest_norm(x, floor) == reference(norms, floor) == \
            (1.0 if tie else 1.5, 0)


def test_tie_in_a_later_size_goes_to_the_earlier_element():
    # Element 1's 1 x 1 block and element 0's 3 x 3 block both have norm
    # 1, the largest: element 0 wins, though its size comes second.
    one = np.array([[[[0.5]]], [[[1.0]]]], dtype=complex)
    three = np.stack([np.eye(3), 0.1 * np.eye(3)])[:, None].astype(complex)
    x = Blocks([one, three])
    for floor in (-1.0, 0.0, 0.9):
        assert largest_norm(x, floor) == (1.0, 0)


def test_dominant_slice_takes_fewer_svd_slices(svd_counter):
    # 19 generic 4 x 4 slices with Frobenius norm 8 (operator norm under 8)
    # and a rank-one slice of norm 10.  The lower bound F / sqrt(4) = 5
    # leaves every slice to the SVD; the rank-one slice's exact norm, 10,
    # leaves none of the others.
    rng = np.random.default_rng(0)
    a = draw_stack(rng, ["generic"] * 19 + ["rank1"], 4, 4, False)
    a *= (np.array([8.0] * 19 + [10.0]) / np.linalg.norm(a, axis=(1, 2)))[:, None, None]
    assert np.all(np.linalg.norm(a, axis=(1, 2)) >= 10.0 / 2)
    want = reference(full_norms(a), 0.0)
    svd_counter.clear()
    assert largest_norm(a) == want
    assert sum(math.prod(s[:-2]) for s in svd_counter) == 1


def test_slice_exactly_at_the_exact_floor_cut_takes_an_svd(svd_counter):
    # Slice 0 has the largest Frobenius norm and exact norm 1, the floor.
    # Slice 1 is c at one entry, c the cut (1 - 1e-150) / (1 + margin):
    # its Frobenius and Schatten-8 bounds equal the cut exactly, and the
    # comparisons after an exact floor are non-strict, so it is SVD'd;
    # slice 2 is well under the cut and is not.
    a = np.zeros((3, 2, 2), dtype=complex)
    a[0, 0, 0] = 1.0
    a[1, 1, 0] = c = (1.0 - _UNDERFLOW) / matfun._scale(2, 2)
    a[2] = 0.5 * c * np.eye(2)
    svd_counter.clear()
    assert largest_norm(a) == (1.0, 0)
    assert [math.prod(s[:-2]) for s in svd_counter] == [1, 1]


def test_pair_defect_at_dimension_32_svds_few_slices(svd_counter):
    # symmetric(4) at dimension 32: max_pair_defect takes 12 chunks of 48
    # pairs.  On a corrector iterate the Frobenius screen alone SVDs 44
    # slices of every chunk after the first (506 in all); with the
    # Schatten-8 screen those chunks SVD only their exact floor's slice,
    # and the whole call fewer slices than one chunk holds (29-33).
    spec = {"kind": "symmetric", "params": 4}
    group = group_of(spec)
    rng = trial_rng(0, 0)
    rep = ApproxRep(group, perturb_rep_values(exact_rep_values(spec, group, 32, rng),
                                              0.01, rng))
    iterate = one_step(rep).values
    assert len(pair_chunks(iterate, group.order)) == 12
    svd_counter.clear()
    max_pair_defect(iterate, group.mult)
    assert sum(math.prod(s[:-2]) for s in svd_counter) <= 48


# --- the early exit -----------------------------------------------------------

def exit_bound(a):
    """sqrt(top) (1 + margin) + 1e-150 of a dense stack, top its largest
    squared Frobenius norm: a floor >= 0 at or over it ends the call after
    the Frobenius pass."""
    return math.sqrt(_screen(a)[2]) * matfun._scale(*a.shape[-2:]) + _UNDERFLOW


def beside(t):
    """t and the floats one ulp below and above it."""
    return [t, float(np.nextafter(t, -np.inf)), float(np.nextafter(t, np.inf))]


@contextlib.contextmanager
def recorded(*targets):
    """The shapes of the first arguments passed to the (owner, name)
    functions of ``targets`` while the block runs."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for owner, name in targets:
            real = getattr(owner, name)
            mp.setattr(owner, name, lambda a, *args, _real=real, **kwargs:
                       calls.append(np.shape(a)) or _real(a, *args, **kwargs))
        yield calls


def screened_calls():
    """The shapes passed to ``matfun._svdvals`` and ``matfun._schatten8``
    while the block runs."""
    return recorded((matfun, "_svdvals"), (matfun, "_schatten8"))


@settings(max_examples=150, deadline=None)
@given(seeds, st.lists(kinds.filter(lambda k: k != "huge"), min_size=1, max_size=6),
       st.integers(1, 5), st.integers(1, 5), st.sampled_from([1.0, 1e-160, 1e150]))
def test_early_exit_at_its_bound_matches_full_svd(seed, slice_kinds, m, n, c):
    """Floors at the exit bound and one ulp to either side, on stacks with
    rank-one slices (||x|| = F), zero slices and squares that underflow:
    the value is the full SVD's, and at the bound or over it the call
    takes no SVD and no Schatten-8 bound."""
    rng = np.random.default_rng(seed)
    a = c * draw_stack(rng, slice_kinds, m, n, False)
    norms, bound = full_norms(a), exit_bound(a)
    for floor in beside(bound):
        with screened_calls() as calls:
            got = largest_norm(a, floor)
        assert got == reference(norms, floor)
        assert floor < bound or calls == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.booleans())
def test_zero_stacks_at_floors_zero_and_minus_one(count, m, n, blocks):
    """All-zero stacks, empty ones and Blocks included: floor 0 gives
    (0, None), floor -1 gives (0, first slice) when there is a slice."""
    a = np.zeros((count, m, n), dtype=complex)
    x = Blocks([a[:, None]]) if blocks and m == n > 0 else a
    for floor in (0.0, -1.0):
        assert largest_norm(x, floor) == reference(full_norms(a), floor)


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
       st.floats(1.0, 3.0), st.booleans(), st.sampled_from([1.0, 1e-160, 1e150]))
def test_blocks_with_one_part_under_the_floor_and_one_over(seed, count, b, extra,
                                                          ratio, larger_under, c):
    """Floors at one part's exit bound and one ulp to either side, with the
    other part's Frobenius bound over them: the value is the full SVD's,
    whether or not a norm of the part over them beats the floor; the part
    under them alone exits with no SVD."""
    rng = np.random.default_rng(seed)
    under_size, over_size = (b + extra, b) if larger_under else (b, b + extra)
    under = c * draw_stack(rng, ["generic"] * count, under_size, under_size,
                           False)[:, None]
    bound = exit_bound(under)
    over = draw_stack(rng, ["generic"] * 2 * count, over_size, over_size, False)
    over = over.reshape(count, 2, over_size, over_size)
    over *= ratio * bound / math.sqrt(_screen(over)[2])
    assert exit_bound(over) > bound
    parts = {under_size: under, over_size: over}
    x = Blocks([parts[size] for size in sorted(parts)])
    norms = np.max([full_norms(p).max(axis=-1) for p in x.parts], axis=0)
    for floor in beside(bound):
        assert largest_norm(x, floor) == reference(norms, floor)
    with screened_calls() as calls:
        assert largest_norm(Blocks([under]), bound) == (bound, None)
    assert calls == []


def without_one_pass_exit(x, floors):
    """largest_norm at each floor by the route its one-pass exit bypasses:
    the per-slice Frobenius pass and what follows it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matfun, "_stack_bound", lambda p: math.inf)
        return [largest_norm(x, floor) for floor in floors]


@settings(max_examples=150, deadline=None)
@given(seeds, st.lists(kinds, min_size=1, max_size=6), st.integers(1, 5),
       st.integers(1, 5), st.sampled_from([1.0, 1e-160, 1e150]), st.booleans())
def test_one_pass_exit_matches_the_route_it_bypasses(seed, slice_kinds, m, n, c,
                                                     blocks):
    """Floors at the whole stack's bound ``_stack_bound + 1e-150`` and one
    ulp to either side, at and beside every slice's norm, and huge floors,
    on stacks and single-part Blocks with rank-one slices (||x|| = F),
    squares that underflow and squares whose sum overflows: the value is
    the full SVD's and that of the route without the exit, and at a
    finite bound or over it the call runs no per-slice screen."""
    rng = np.random.default_rng(seed)
    c = 1.0 if c > 1 and "huge" in slice_kinds else c     # entries stay finite
    a = c * draw_stack(rng, slice_kinds, m, n, False)
    x = Blocks([a[:, None]]) if blocks and m == n else a
    norms = full_norms(a)
    bound = matfun._stack_bound(a) + _UNDERFLOW
    floors = beside(bound) + cut_floors(norms) + [1.8e199, 1e300]
    got = []
    with recorded((matfun, "_screen")) as calls:
        for floor in floors:
            calls.clear()
            got.append(largest_norm(x, floor))
            assert not bound <= floor < math.inf or calls == []
    assert got == [reference(norms, floor) for floor in floors]
    assert got == without_one_pass_exit(x, floors)


# --- no SVD on valid input -------------------------------------------------

def test_log_and_exp_of_valid_half_plane_input_take_no_svd(svd_counter):
    rng = trial_rng(3, 0)
    x = np.stack([0.05 * random_skew(rng, 6) for _ in range(12)])
    svd_counter.clear()            # the draw normalizes by operator norms
    u = exp_skew(x)
    principal_log_unitary(u)
    principal_log_unitary(u.reshape(3, 4, 6, 6))
    assert svd_counter == []


def cyclic6_rep():
    """A rep on cyclic(6) at dimension 6, perturbed by 0.01."""
    spec = {"kind": "cyclic", "params": 6}
    group = group_of(spec)
    rng = trial_rng(0, 0)
    return ApproxRep(group, perturb_rep_values(exact_rep_values(spec, group, 6, rng),
                                               0.01, rng))


def log_stack(rep):
    """The (g, k) stack rho(k)* rho(kg) rho(g)* that one_step logs."""
    v = rep.values
    return adjoint(v)[None] @ v[rep.group.mult.T] @ adjoint(v)[:, None]


def test_one_step_log_gates_take_no_svd_or_schatten8():
    # The stack one_step logs on cyclic(6) at dimension 6, 36 slices of
    # 6 x 6: both of the log's gates pass on their Frobenius pass.
    m = log_stack(cyclic6_rep())
    assert m.shape == (6, 6, 6, 6)
    with screened_calls() as calls:
        principal_log_unitary(m)
    assert calls == []


def test_passing_gates_on_the_one_step_stack_take_no_per_slice_screen():
    # The whole stack's Frobenius norm decides both of the log's gates.
    m = log_stack(cyclic6_rep())
    one = np.eye(6)
    with recorded((matfun, "_screen")) as calls:
        assert largest_norm(adjoint(m) @ m - one, 1e-10) == (1e-10, None)
        assert largest_norm(m - one, 0.5) == (0.5, None)
    assert calls == []


def last_step_iterate():
    """(input rep, the iterate correct_to_rep takes its last step from):
    defects 0.02 and 4.4e-11."""
    rep = cyclic6_rep()
    iterates = [one_step(rep)]
    while iterates[-1].defect() > 1e-12:
        iterates.append(one_step(iterates[-1]))
    correction = correct_to_rep(rep, tol=1e-12)
    assert len(iterates) == 3 == correction.iterations
    assert np.array_equal(iterates[-1].values, correction.last.values)
    return rep, iterates[-2]


def test_log_of_the_last_step_stack_takes_no_square_or_series():
    # Every slice has degree 0: the log screens no a @ a and runs no series,
    # where the first step's log does both.  There the 11 slices with g or
    # k the identity, rho(k)* rho(k) and rho(g)* rho(g), are the identity to
    # rounding: a's per-slice screen leaves 25 slices to the square and the
    # series.
    rep, last = last_step_iterate()
    targets = (matfun, "_frobenius2"), (matfun, "_series")
    with recorded(*targets) as calls:
        principal_log_unitary(log_stack(rep))
    assert calls == [(36, 6, 6), (25, 6, 6), (25, 6, 6)]
    with recorded(*targets) as calls:
        principal_log_unitary(log_stack(last))
    assert calls == []


def test_one_step_on_the_last_step_iterate_builds_no_power_stack(monkeypatch):
    # The exp's series to degree 1 is c_0 + c_1 z: no Paterson-Stockmeyer
    # stack of powers (m, 3, n, n), which the first step builds for both
    # series, the log's for the 25 slices its degree-0 screen leaves.
    rep, last = last_step_iterate()
    shapes, real = [], np.zeros
    monkeypatch.setattr(np, "zeros", lambda shape, *args, **kwargs:
                        shapes.append(shape) or real(shape, *args, **kwargs))
    powers = lambda: [s for s in shapes if isinstance(s, tuple) and len(s) == 4
                      and s[1] == matfun._SERIES_STEP]
    one_step(rep)
    assert powers() == [(25, 3, 6, 6), (6, 3, 6, 6)]
    shapes.clear()
    one_step(last)
    assert powers() == []


@settings(max_examples=40, deadline=None)
@given(seeds, st.lists(st.floats(0.01, 60.0), min_size=3, max_size=6),
       st.integers(1, 6))
def test_exp_of_a_stack_across_the_cap_matches_each_slice_alone(seed, norms, n):
    """A slice under EXP_CAP is scaled by 2^0 in a stack with one over it
    and not scaled at all alone; either way its bits are the same, and so
    are those of a slice that squares, also of one whose Frobenius norm is
    under the cap and over it with the screen's margin."""
    rng = np.random.default_rng(seed)
    x = np.stack([random_skew(rng, n) for _ in norms])
    x *= (np.array(norms) / np.linalg.norm(x, axis=(1, 2)))[:, None, None]
    for i, f in enumerate([0.5, 2.0, 1 - 1e-12]):     # under, over, margin
        x[i] *= f * EXP_CAP / np.linalg.norm(x[i])
    e = exp_skew(x)
    for i in range(len(x)):
        assert e[i].tobytes() == exp_skew(x[i]).tobytes()


def test_approx_rep_of_unitary_values_takes_no_svd(svd_counter):
    rng = trial_rng(5, 0)
    values = np.stack([np.eye(5)] + [random_unitary(rng, 5) for _ in range(5)])
    svd_counter.clear()
    ApproxRep(cyclic_group(6), values)
    assert svd_counter == []


def test_matrix_algebra_self_check_takes_no_svd(svd_counter):
    rng = trial_rng(7, 0)
    v = random_unitary(rng, 8)
    u = (v * 1j ** rng.integers(0, 4, 8)) @ v.conj().T      # u^4 = 1
    svd_counter.clear()
    matrix_algebra(8, cyclic_group(4), [np.linalg.matrix_power(u, k) for k in range(4)])
    assert svd_counter == []


def test_trivialize_of_the_seed_a_cocycle_was_made_from_takes_no_svd(svd_counter):
    # The cocycle's exactness gate ends after its Frobenius pass, and the
    # mismatch of the seed it was made from is exactly zero.
    rng = trial_rng(3, 0)
    spec = {"kind": "cyclic", "params": 4}
    group = group_of(spec)
    alg = matrix_algebra(4, group, list(exact_rep_values(spec, group, 4, rng)))
    v0 = random_unitary(rng, 4)
    w = coboundary(alg, v0)
    svd_counter.clear()
    assert trivialize(w, v0, tol=1e-12).iterations == 0
    assert svd_counter == []


def test_pinned_exact_input_takes_only_the_frozen_figure_svds(svd_counter):
    # An exact representation in two blocks, of sizes 2 and 3, pinned on
    # the second: with its own defect measured beforehand, the run's only
    # SVDs are those of the frozen blocks' exact defect, measured once; no
    # step runs and the drift is exactly zero.
    rng = trial_rng(4, 0)
    spec = {"kind": "dihedral", "params": 3}
    group = group_of(spec)
    tower = Tower(algebra=trivial_algebra((2, 3), group),
                  ideals=(frozenset(), frozenset({0})))
    values = Blocks((exact_rep_values(spec, group, 2, rng)[:, None],
                     exact_rep_values(spec, group, 3, rng)[:, None]))
    rep = ApproxRep(group, values)
    assert rep.defect() <= 1e-12
    svd_counter.clear()
    max_pair_defect(tower.project(1, 0, values), group.mult)
    frozen = list(svd_counter)
    svd_counter.clear()
    result = correct_to_rep(rep, tol=1e-12, pin=(tower, 0))
    assert (result.iterations, result.quotient_drift) == (0, 0.0)
    assert svd_counter == frozen


class StopLift(Exception):
    """Raised in place of the lift's first stage after its checks on phi."""


def test_lift_gates_on_phi_take_no_svd(monkeypatch, svd_counter):
    s = Scenario(kind="lift", seed=1, group={"kind": "cyclic", "params": 6},
                 source={"model": "translation", "order": 6},
                 tower={"levels": 8, "base": 0.2, "ratio": 0.2}, trials=1)
    tower, action, seed = build_lift_scenario(s, trial_rng(s.seed, 0))

    def stop(*args):
        raise StopLift
    monkeypatch.setattr(repcorrect, "symmetrize", stop)
    svd_counter.clear()
    with pytest.raises(StopLift):
        lift_group_rep(tower, action, seed, tol=1e-12)
    assert svd_counter == []


# --- just over each gate: rejected with the same message --------------------

def over(tol):
    """(a, defect) with a = 1 + m 2^-52, whose square rounds to exactly
    1 + defect, defect = 2m 2^-52: the first such defect at or above
    (1 + 1e-6) tol."""
    m = math.ceil(tol * (1 + 1e-6) * 2.0 ** 51)
    return 1 + m * 2.0 ** -52, 2 * m * 2.0 ** -52


def test_log_rejects_input_just_over_its_unitarity_gate():
    a, defect = over(1e-10)
    assert 1e-10 < defect <= 1e-10 * (1 + 1e-5)
    u = np.stack([np.eye(3), np.diag([1.0, a, 1.0])]).astype(complex)
    with pytest.raises(ValueError) as err:
        principal_log_unitary(u)
    assert str(err.value) == (f"input is not unitary: ||u*u - 1|| = "
                              f"{defect:.3e} at slice (1,)")


def test_exp_rejects_input_just_over_its_skewness_gate():
    delta = 1e-10 * (1 + 1e-6)
    x = np.diag([delta / 2, 0.0, 1j]).astype(complex)
    with pytest.raises(ValueError) as err:
        exp_skew(x)
    assert str(err.value) == f"input is not skew-Hermitian: ||x + x*|| = {delta:.3e}"
    exp_skew(np.diag([1e-10 / 2, 0.0, 1j]).astype(complex))


def test_approx_rep_rejects_values_just_over_its_unitarity_gate():
    a, defect = over(1e-10)
    values = np.stack([np.eye(2), np.diag([a, 1.0])]).astype(complex)
    with pytest.raises(ValueError) as err:
        ApproxRep(cyclic_group(2), values)
    assert str(err.value) == f"values flagged unitary but defect is {defect:.3e}"


def test_matrix_algebra_rejects_action_just_over_its_tolerance():
    """An action of Z/2 by Ad(u) with u^2 = diag(1, e^{i t}) composes only up
    to a defect D; action_tol D passes and D / (1 + 1e-6) is rejected."""
    u = np.diag([1.0, np.exp(5e-6j)])
    G = cyclic_group(2)
    defect = matrix_algebra(2, G, [np.eye(2), u], action_tol=1.0).action_defect(1, 0.0)
    assert defect > 1e-8
    matrix_algebra(2, G, [np.eye(2), u], action_tol=defect)
    with pytest.raises(ValueError) as err:
        matrix_algebra(2, G, [np.eye(2), u], action_tol=defect / (1 + 1e-6))
    assert str(err.value) == f"action data is not a homomorphism (defect {defect:.3e})"


def test_cocycle_gates_reject_a_cocycle_just_over_them():
    # Z/2 acting trivially on M_2 and w(1) = diag(1, e^{it}): the pair
    # (1, 1) has defect |1 - e^{2it}| = 2t, just over 1e-11.  Each refusal
    # names the exact defect, which the cocycle then caches.
    t = 0.5e-11 * (1 + 1e-6)
    values = np.stack([np.eye(2), np.diag([1.0, np.exp(1j * t)])]).astype(complex)
    alg = matrix_algebra(2, cyclic_group(2), [np.eye(2)] * 2)
    exact = cocycle(alg, values).defect_with_argmax()
    assert 1e-11 < exact[0] <= 1e-11 * (1 + 1e-5)
    for run, message in [
            (lambda w: trivialize(w, np.eye(2), tol=1e-12),
             f"cocycle must be exact before trivialization (defect "
             f"{exact[0]:.3e}); approximately multiplicative cocycles "
             f"are reported, not corrected"),
            (lambda w: one_step_cobound(w, np.eye(2)),
             f"cocycle must be exact before correction (defect {exact[0]:.3e})")]:
        w = cocycle(alg, values)
        with pytest.raises(DefectTooLargeError) as err:
            run(w)
        assert str(err.value) == message
        assert w.defect_with_argmax() == exact


def test_pinned_quotient_just_over_its_gate_is_rejected():
    # Z/2 by diag(1, e^{it}) + (-1) in blocks of sizes 2 and 1, pinned on
    # the first: the quotient's defect is 2t, just over 1e-12.
    t = 0.5e-12 * (1 + 1e-6)
    group = cyclic_group(2)
    tower = Tower(algebra=trivial_algebra((2, 1), group),
                  ideals=(frozenset(), frozenset({1})))
    pinned = np.stack([np.eye(2), np.diag([1.0, np.exp(1j * t)])]).astype(complex)
    values = Blocks((np.array([1.0, -1.0]).reshape(2, 1, 1, 1), pinned[:, None]))
    down = ApproxRep(group, pinned, unitary=False, unital=False).defect()
    assert 1e-12 < down <= 1e-12 * (1 + 1e-5)
    with pytest.raises(DefectTooLargeError) as err:
        correct_to_rep(ApproxRep(group, values), tol=1e-12, pin=(tower, 0))
    assert str(err.value) == (f"quotient of the input is not an exact "
                              f"representation (defect {down:.3e})")


@pytest.mark.parametrize("which", ["defect", "equivariance"])
def test_lift_rejects_phi_just_over_its_gates(which):
    # Z/2 acting on M_2 by Ad(diag(1, -1)), the translation action of Z/2
    # on its group algebra, and phi(1) the swap: an exact equivariant
    # representation.  A phase e^{it} on phi(1) makes its defect 2t, and
    # diagonal entries (-t, t) its equivariance defect 2t instead.
    action = translation_source_action(2)
    G = action.group
    alg = matrix_algebra(2, G, [np.diag([1.0, np.exp(-1j * np.pi * g)]) for g in range(2)])
    t = 0.5e-11 * (1 + 1e-6)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    one = np.exp(1j * t) * swap if which == "defect" else swap + np.diag([-t, t])
    values = np.stack([np.eye(2), one]).astype(complex)
    phi = ApproxRep(G, values, unitary=False, unital=False)
    defect = ApproxRep(G, values, unitary=False, unital=False).defect()
    eq = equivariance_defect(values, alg.act, action)
    # The rounding of e^{-i pi} adds about 1.2e-16 to the equivariance defect.
    assert 1e-11 < {"defect": defect, "equivariance": eq}[which] <= 1e-11 * (1 + 1e-4)
    assert min(defect, eq) <= 1e-15
    with pytest.raises(DefectTooLargeError) as err:
        lift_group_rep(Tower(alg, (frozenset(),)), action, phi, tol=1e-12)
    assert str(err.value) == (f"phi must be exact and equivariant at the top "
                              f"(defect {defect:.3e}, equivariance {eq:.3e})")
