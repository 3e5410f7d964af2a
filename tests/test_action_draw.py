"""The nontrivial action draw accepts a draw once some slice's Frobenius
norm, over sqrt(dim) and the screen's margin, exceeds 0.3, and otherwise
asks ``largest_norm(x, 0.3)``.  These tests compare ``_norm_exceeds`` and
``nontrivial_action_rep`` with the exact norm alone: over groups,
dimensions and seeds, and on stacks at 0.3 to rounding, where the
Frobenius exit must not decide, and near it either way."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import reference_action_rep
from equifix.matfun import _norm_exceeds, largest_norm
from equifix.scenarios import (ScenarioError, make_group, nontrivial_action_rep,
                               random_unitary, trial_rng)
from test_batched import GROUP_SPECS

SPECS = GROUP_SPECS + [{"kind": "cyclic", "params": 1},
                       {"kind": "product", "params": [["cyclic", 2], ["cyclic", 3]]}]


def draw(draw_rep, spec, dim, seed):
    """The values draw_rep returns, or the error it raises, and the next
    bytes of its rng after it."""
    rng = trial_rng(seed, dim)
    group = make_group(spec["kind"], spec["params"])
    try:
        out = draw_rep(spec, group, dim, rng)
    except ScenarioError as exc:
        out = str(exc)
    return out, rng.bytes(16)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(SPECS), st.integers(1, 7))
def test_action_draw_matches_the_exact_norm_draw(seed, spec, dim):
    got, state = draw(nontrivial_action_rep, spec, dim, seed)
    want, want_state = draw(reference_action_rep, spec, dim, seed)
    assert state == want_state
    if isinstance(want, str):
        assert got == want
    else:
        assert got.tobytes() == want.tobytes()


def exact(x):
    return largest_norm(x, 0.3)[1] is not None


@pytest.mark.parametrize("n", range(1, 33))
def test_scaled_identities_at_the_floor(n):
    # 0.3 I_n for n from 15 to 27 has a computed squared Frobenius norm over
    # 0.09 n, with a norm of 0.3: the margin keeps the exit from deciding.
    for c in (0.3, np.nextafter(0.3, 0), np.nextafter(0.3, 1)):
        x = (c * np.eye(n) + 0j)[None]
        assert _norm_exceeds(x, 0.3) == exact(x)


@pytest.mark.parametrize("n", [2, 3, 6, 12])
def test_stacks_near_the_floor_are_decided_by_the_exact_norm(n, svd_counter):
    rng = np.random.default_rng(n)
    for rel in (-1e-11, -2 ** -52, 0.0, 2 ** -52, 1e-12, 1e-11):
        # Every singular value at 0.3 (1 + rel): F^2 is 0.09 n to rounding,
        # under the exit's bound, so the SVD decides.
        for _ in range(20):
            x = 0.3 * (1 + rel) * random_unitary(rng, n)[None]
            del svd_counter[:]
            assert _norm_exceeds(x, 0.3) == exact(x)
            assert svd_counter
            if abs(rel) >= 1e-12:
                assert _norm_exceeds(x, 0.3) == (rel > 0)
        # One singular value just above 0.3 and the rest far under it.
        u, v = random_unitary(rng, n), random_unitary(rng, n)
        s = np.full(n, 0.01)
        s[0] = 0.3 * (1 + 1e-9)
        assert _norm_exceeds(np.stack([0.2 * u, u * s @ v]), 0.3)
        s[0] = 0.3 * (1 - 1e-9)
        assert not _norm_exceeds(np.stack([u * s @ v, 0.2 * v]), 0.3)


@pytest.mark.parametrize("n", [2, 3, 6, 12])
def test_a_slice_over_the_frobenius_bound_takes_no_svd(n, svd_counter):
    rng = np.random.default_rng(n)
    x = np.stack([0.01 * random_unitary(rng, n),
                  0.3 * (1 + 1e-9) * random_unitary(rng, n)])
    assert _norm_exceeds(x, 0.3) and exact(x)
    assert len(svd_counter) == 1               # the exact norm's, not the exit's
    del svd_counter[:]
    assert _norm_exceeds(x, 0.3) and not svd_counter
    with pytest.raises(ValueError, match="non-finite"):
        _norm_exceeds(np.array([[[np.inf, 0], [0, 1]]], dtype=complex), 0.3)
