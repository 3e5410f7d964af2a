"""Property tests for the certification readout ``readout_norm`` against the
exact kernel ``largest_norm`` it stands in for: never below the exact norm,
at most sqrt(rank) times the screen's factor above it, bit-equal to it
over READOUT_FLOOR, the same in any chunking, 0.0 on an exactly zero
stack, the same refusal of non-finite entries, and the largest part's
figure for Blocks of mixed sizes; and a guard test that the stopping
rules, admission gates and tolerance checks of the rep, cocycle, graded
and integral_estimate kinds never read it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equifix import cocycles, matfun, relations, repcorrect
from equifix.matfun import (_UNDERFLOW, READOUT_FLOOR, Blocks, _scale,
                            largest_norm, readout_norm)
from equifix.scenarios import SUITE, Scenario, run_scenario

seeds = st.integers(0, 2 ** 32 - 1)
# Slice scales from exact zero through rounding level and the floor to
# figures well over it, and entries whose squares overflow.
scales = st.sampled_from([0.0, 1e-17, 1e-15, 4e-15, 1e-14, 3e-14, 1e-12, 1.0, 1e200])
floors = st.sampled_from([0.0, 2e-15, 1e-14, 1e-12])


def draw_stack(rng, slice_scales, lead, m, n, rank1):
    """A stack (*lead, k, m, n) of random slices at the given scales, rank
    one if ``rank1`` (their Frobenius norm is their operator norm)."""
    x = rng.standard_normal((*lead, len(slice_scales), m, n)) + \
        1j * rng.standard_normal((*lead, len(slice_scales), m, n))
    if rank1:
        x = x[..., :, :1] * x[..., :1, :].conj()
    return x * np.array(slice_scales)[:, None, None]


def assert_sandwich(a, floor, rank, m, n):
    """exact <= readout <= exact sqrt(rank) (1 + margin) + 1e-150, up to
    the rounding of the two computed norms, and the exact figure bit for
    bit over READOUT_FLOOR."""
    exact, readout = largest_norm(a, floor)[0], readout_norm(a, floor)
    assert exact <= readout
    rounding = 1 + 4 * m * n * 2.0 ** -53
    assert readout <= exact * math.sqrt(rank) * _scale(m, n) * rounding + _UNDERFLOW
    if readout > READOUT_FLOOR:
        assert readout == exact
    return readout


@settings(max_examples=200, deadline=None)
@given(seeds, st.lists(scales, min_size=1, max_size=6), st.integers(1, 5),
       st.integers(1, 5), st.booleans(), floors)
def test_readout_is_the_exact_norm_or_a_bound_at_most_the_floor(seed, slice_scales,
                                                                 m, n, rank1, floor):
    a = draw_stack(np.random.default_rng(seed), slice_scales, (), m, n, rank1)
    rank = 1 if rank1 else min(m, n)
    readout = assert_sandwich(a, floor, rank, m, n)
    assert readout == assert_sandwich(Blocks((a[None],)), floor, rank, m, n)
    # A maximum over slices: two chunks through a running floor read the same.
    k = len(slice_scales) // 2
    assert readout == readout_norm(a[k:], readout_norm(a[:k], floor))


@settings(max_examples=100, deadline=None)
@given(seeds, st.lists(st.tuples(st.integers(1, 4), scales), min_size=2, max_size=4),
       st.integers(1, 3), floors)
def test_mixed_blocks_read_the_largest_part(seed, sizes, count, floor):
    rng = np.random.default_rng(seed)
    parts = [draw_stack(rng, [scale] * 2, (count,), b, b, False)
             for b, scale in sorted(dict(sizes).items())]
    x = Blocks(parts)
    readout = readout_norm(x, floor)
    assert readout == max(readout_norm(Blocks((p,)), floor) for p in parts)
    exact = largest_norm(x, floor)[0]
    assert exact <= readout
    assert readout == exact or readout <= READOUT_FLOOR


@pytest.mark.parametrize("shape", [(1, 1), (3, 4, 4), (2, 0, 3), (2, 3, 2, 2)])
def test_zero_stacks_read_zero(shape):
    zero = np.zeros(shape, dtype=complex)
    assert readout_norm(zero, 0.0) == largest_norm(zero, 0.0)[0] == 0.0
    assert readout_norm(Blocks((np.zeros((1, 2, *shape[-2:])),)), 0.0) == 0.0
    assert readout_norm(zero, 1e-15) == 1e-15


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 5), st.integers(1, 4), scales,
       st.sampled_from([np.nan, np.inf, -np.inf, 1j * np.inf]))
def test_non_finite_entries_are_refused_as_largest_norm_refuses_them(seed, count, n,
                                                                     scale, bad):
    rng = np.random.default_rng(seed)
    a = draw_stack(rng, [scale] * count, (), n, n, False)
    a[rng.integers(count), rng.integers(n), rng.integers(n)] = bad
    for floor in (0.0, 1e300, np.inf):
        for x in (a, Blocks([a[:, None]])):
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                largest_norm(x, floor)
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                readout_norm(x, floor)


def test_a_rounding_level_readout_takes_no_svd(svd_counter):
    a = draw_stack(np.random.default_rng(0), [1e-16] * 6, (), 6, 6, False)
    assert largest_norm(a)[0] < readout_norm(a, 0.0) <= READOUT_FLOOR
    assert len(svd_counter) > 0
    svd_counter.clear()
    readout_norm(a, 0.0)
    assert svd_counter == []


class Reached(Exception):
    """Raised by the readout in the guard test; trials record only
    ValueError and RuntimeError, so this one ends the run."""


# Trials that pass every check, of each suite entry at seed 3, at the
# tolerances 1e-14, 1e-15 and 1e-16: those of exact norms throughout.
PASSING = {"rep": [25, 15, 0], "cocycle": [25, 20, 0], "graded": [15, 3, 0],
           "integral_estimate": [25, 25, 25]}


@pytest.mark.parametrize("label", PASSING)
def test_stopping_rules_and_gates_never_read_the_readout(monkeypatch, tmp_path, label):
    # These kinds route no certification readout: their stopping rules,
    # gates and tolerance checks read exact norms, so a readout that raises
    # leaves every outcome as it was, also at tolerances under the floor.
    def reached(*args):
        raise Reached
    for module in (matfun, relations, repcorrect, cocycles):
        monkeypatch.setattr(module, "readout_norm", reached)
    passing = []
    for tol in (1e-14, 1e-15, 1e-16):
        s = Scenario.from_dict(SUITE[label][1], seed=3, tolerance=tol)
        passing.append(sum(t.all_passed() for t in run_scenario(s, tmp_path).trials))
    assert passing == PASSING[label]
