"""Property tests for the near-identity exits of the series kernel and the
log: the series to degree one evaluates c_0 + c_1 z directly, and a log
whose every slice has degree 0 returns a = (u - u*)/2.  Each is compared
bit for bit with the route it bypasses, kept here as the reference: the
Paterson-Stockmeyer evaluation, and the log's a^2, screen, series and
product with a.  The log's degree classes are compared with the log that
takes a whole stack to its largest degree (``dense_reference``)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import whole_stack_log
from equifix import matfun
from equifix.matfun import (_ARCSIN, _EXP, _RHO2_LIMITS, _SERIES_STEP, _scale,
                            _screen, _series, adjoint, exp_skew,
                            principal_log_unitary)
from equifix.scenarios import random_skew

seeds = st.integers(0, 2 ** 32 - 1)
COEFS = {"log": _ARCSIN, "exp": _EXP}


def paterson_stockmeyer(z, coef, degree):
    """``_series`` by its general route at every degree: the powers z and
    z^2 and the Horner product side by side, one contraction per block of
    three coefficients, Horner in z^3.  The result is written over z."""
    m, n = z.shape[0], z.shape[-1]
    blocks = -(-(int(degree.max(initial=0)) + 1) // _SERIES_STEP)
    c = coef[degree, :blocks]
    powers = np.zeros((m, _SERIES_STEP, n, n), dtype=complex)
    powers[:, 0] = z
    for i in range(1, _SERIES_STEP - 1):
        np.matmul(powers[:, i - 1], z, out=powers[:, i])
    step = powers[:, -2] @ z if blocks > 1 else None
    horner = powers[:, -1]
    flat, diag = z.reshape(m, 1, n * n), z.reshape(m, n * n)[:, ::n + 1]
    powers = powers.reshape(m, _SERIES_STEP, n * n)
    for j in reversed(range(blocks)):
        if j < blocks - 1:
            np.matmul(z, step, out=horner)
        np.matmul(c[:, None, j, 1:], powers, out=flat)
        diag += c[:, j, :1]
    return z


def series_log(u):
    """The log past its gates with no degree-0 exit: a^2, its screen, the
    series by the general route and the odd part of a times it.  Returns
    the log and each slice's degree."""
    n = u.shape[-1]
    s = u.reshape(-1, n, n)
    a = (s - adjoint(s)) * 0.5
    z = a @ a
    degree = np.searchsorted(_RHO2_LIMITS, np.sqrt(_screen(z)[0]) * _scale(n, n))
    x = a @ paterson_stockmeyer(z, _ARCSIN, degree)
    return ((x - adjoint(x)) * 0.5 + 0.0).reshape(u.shape), degree


def series_calls(mp):
    """The degrees of every ``_series`` call from now on."""
    calls = []
    mp.setattr(matfun, "_series", lambda z, coef, degree:
               calls.append(degree.copy()) or _series(z, coef, degree))
    return calls


def with_signed_zeros(rng, z):
    """z with about a third of its real and imaginary parts set to +0 or
    -0, and one slice, when there are two or more, all -0."""
    x = z.view(np.float64)
    hit = rng.random(x.shape) < 1 / 3
    x[hit] = np.copysign(0.0, rng.standard_normal(hit.sum()))
    if len(z) > 1:
        z[rng.integers(len(z))] = complex(-0.0, -0.0)
    return z


@settings(max_examples=120, deadline=None)
@given(seeds, st.lists(st.integers(0, 1), min_size=1, max_size=6),
       st.integers(1, 6), st.sampled_from(sorted(COEFS)), st.floats(1e-12, 1.0),
       st.integers(0, 4))
def test_series_to_degree_one_matches_paterson_stockmeyer(seed, degrees, n, which,
                                                          size, higher):
    """Degree-0 and degree-1 slices mixed, with signed zeros, for both
    series: the two-term result is the Paterson-Stockmeyer one, its zeros
    made +0.  A stack that also holds a slice of degree 2 to 5 takes the
    general route, which the reference copies."""
    rng = np.random.default_rng(seed)
    z = size * (rng.standard_normal((len(degrees), n, n))
                + 1j * rng.standard_normal((len(degrees), n, n)))
    z = with_signed_zeros(rng, z)
    degree = np.array(degrees + ([1 + higher] if higher else []))
    if higher:
        z = np.concatenate([z, z[:1]])
    got = _series(z.copy(), COEFS[which], degree) + 0.0
    want = paterson_stockmeyer(z.copy(), COEFS[which], degree) + 0.0
    assert got.tobytes() == want.tobytes()


def skew_with_frobenius(rng, n, f2, rank1):
    """A skew-Hermitian n x n matrix with ||x||_F^2 = f2 (to rounding);
    ``rank1`` gives i t v v*, whose square has ||x^2||_F = ||x||_F^2."""
    if rank1:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = 1j * np.outer(v, v.conj())
    else:
        x = random_skew(rng, n)
    norm = np.linalg.norm(x)
    return x * (math.sqrt(f2) / norm) if norm > 0 else x


# The total ||a||_F^2 of a stack against the degree-0 limit: far under it,
# at it and 1e-9 and 5e-11 to either side (the exit's margin is about 2e-10,
# the screen's 1e-10), over it (degree 1 and more), zero, and so small that
# the squares underflow.
LIMIT = float(_RHO2_LIMITS[0])
totals = st.sampled_from([0.0, 1e-320, 1e-3 * LIMIT, 0.5 * LIMIT, (1 - 1e-9) * LIMIT,
                          (1 - 5e-11) * LIMIT, LIMIT, (1 + 5e-11) * LIMIT,
                          2 * LIMIT, 1e-10, 1e-4])


@settings(max_examples=150, deadline=None)
@given(seeds, st.integers(1, 6), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       totals, st.booleans(), st.booleans())
def test_log_at_degree_zero_matches_the_series_route(seed, n, weights, total,
                                                     rank1, lead):
    """Stacks on both sides of the degree-0 limit, rank-one slices (where
    ||a^2||_F = ||a||_F^2, the edge of the exit's bound) among them, with
    the zero entries of u given random signs: the log is bit for bit that
    of the route without the exit, which finds every slice at degree 0
    whenever the exit is taken (no series called); a stack well under the
    limit takes it."""
    rng = np.random.default_rng(seed)
    w = np.array(weights) if sum(weights) > 0 else np.ones(len(weights))
    x = np.stack([skew_with_frobenius(rng, n, total * wi / w.sum(), rank1) for wi in w])
    u = exp_skew(x)
    f = u.view(np.float64)
    zero = f == 0                      # all off the diagonal when total = 0
    f[zero] = np.copysign(0.0, rng.standard_normal(zero.sum()))
    if lead and len(u) % 2 == 0:
        u = u.reshape(2, len(u) // 2, n, n)
    with pytest.MonkeyPatch.context() as mp:
        calls = series_calls(mp)
        got = principal_log_unitary(u)
    want, degree = series_log(u)
    assert got.tobytes() == want.tobytes()
    assert calls or not degree.any()
    if total <= 0.5 * LIMIT:
        assert calls == []
    if len(u) == 1 and not lead:
        assert principal_log_unitary(u[0]).tobytes() == want[0].tobytes()


# --- degree classes -----------------------------------------------------------

def rank_one_unitary(rng, n, sine2):
    """1 + (e^(i theta) - 1) v v* for a random unit v, sin^2 theta = sine2:
    its a = (u - u*)/2 is i sin(theta) v v*, with ||a^2||_F = ||a||_F^2 =
    sine2 to rounding."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    theta = math.asin(math.sqrt(sine2))
    return np.eye(n) + (np.exp(1j * theta) - 1) * np.outer(v, v.conj())


def class_slice(rng, n, kind):
    """One n x n unitary of the given kind: the exact identity, the identity
    to rounding, a rank-one slice whose sin^2 theta sits at a factor of a
    degree limit (on either side of the limit and of the per-slice screen's
    two margins), one at the cap degree, or exp of a random skew matrix."""
    scale = _scale(n, n)
    if kind == "identity":
        return np.eye(n, dtype=complex)
    if kind == "rounding":
        q = exp_skew(random_skew(rng, n))
        return q @ adjoint(q)
    if kind == "cap":
        return rank_one_unitary(rng, n, 0.23)          # over _RHO2_LIMITS[-1]
    if kind.startswith("limit"):
        j, power = int(kind[5]), float(kind[7:])
        return rank_one_unitary(rng, n, _RHO2_LIMITS[j] * scale ** power)
    return exp_skew(float(kind) * random_skew(rng, n))


CLASS_KINDS = (["identity", "rounding", "cap", "1e-9", "1e-4", "0.1"]
               + [f"limit{j} {p}" for j in (0, 1) for p in (-3, -1.5, -0.5, 0.5, 1.5)])


@settings(max_examples=150, deadline=None)
@given(seeds, st.integers(1, 6), st.lists(st.sampled_from(CLASS_KINDS), max_size=8),
       st.booleans())
def test_log_degree_classes_match_the_whole_stack_log(seed, n, kinds, lead):
    """Stacks that mix exact identities, rounding-level slices, rank-one
    slices on either side of the first two degree limits and of the screen's
    margins, slices at the cap degree and generic ones, empty stacks among
    them: the log is bit for bit the one that takes the whole stack to its
    largest degree, and each slice's log is that of the slice alone."""
    rng = np.random.default_rng(seed)
    u = np.stack([class_slice(rng, n, k) for k in kinds]) if kinds else \
        np.zeros((0, n, n), dtype=complex)
    if lead and len(u) % 2 == 0:
        u = u.reshape(2, len(u) // 2, n, n)
    got = principal_log_unitary(u)
    assert got.shape == u.shape
    assert got.tobytes() == whole_stack_log(u).tobytes()
    for ui, gi in zip(u.reshape(-1, n, n), got.reshape(-1, n, n)):
        assert principal_log_unitary(ui).tobytes() == gi.tobytes()
