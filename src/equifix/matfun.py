"""Complex matrix arithmetic and the functional calculus used by the
correction pipelines: operator norm, polar part, principal logarithm of
unitaries, exponential of skew-Hermitian matrices, spectral rounding.

Matrices are plain complex numpy arrays.  The norm, defect, log, exp and
polar kernels also accept stacks ``(..., n, n)`` and work slice by slice,
and block-diagonal elements stored block by block (:class:`Blocks`), which
they take one batched call per block size; the norm of such an element is
its largest block norm.

The exponential of a skew-Hermitian x is a function of the Hermitian
matrix -i x, so one batched ``eigh`` computes it for a whole stack.  The
logarithm of a unitary u within HALF_PLANE_RADIUS = 1/2 of 1 is an odd
power series, with no eigensystem.  On that disc every eigenvalue argument
satisfies |theta| <= 2 arcsin(1/4) < pi/2, where sin is injective, so the
Hermitian h = (u - u*) / 2i, whose eigenvalues are sin(theta), gives

    log u = i arcsin(h) = i h p(h^2),   p(y) = sum_k c_k y^k,
    c_k = C(2k, k) / (4^k (2k + 1)),

with ||h||^2 <= sin^2(2 arcsin(1/4)) = 15/64 (ARCSIN_CAP).  The kernel
takes a = i h = (u - u*) / 2 and log u = a q(a^2), q(z) = p(-z), so that
no complex scalar enters.  Each slice takes its own degree K from a bound
rho^2 >= ||h||^2 = ||h^2||: its ||h^2||_F times the Frobenius screen's
rounding margin.  The c_k decrease, so the terms past K weigh at most
rho c_{K+1} rho^(2K+2) / (1 - rho^2); K is the least degree with
c_{K+1} rho^(2K+2) / (1 - rho^2) <= 2^-53, which keeps the remainder
under the rounding of ||log u||.  A bound over the cap counts as the cap,
whose degree is K = 21: its remainder factor, 4.8e-17, leaves room for
the rounding of the radius test and a unitarity defect of 1e-10.  One
Paterson-Stockmeyer evaluation (SIAM J. Comput. 2, 1973) in the powers
z, z^2, z^3 takes a stack to its largest K, in at most 9 products, with
each slice's coefficients above its own K set to zero.  The terms so
added are exact zeros and come after the slice's own, so a slice's
result (its zeros made +0) does not depend on the rest of its stack.

The correctors only take logs inside that disc: the one-step correctors
log rho(k)* rho(kg) rho(g)* and its cocycle analogue, which are within
the measured defect r <= 1/5 of 1, and the averaging estimate requires
||u - 1|| <= 1/2.  Any other unitary, and every spectral rounding, goes
through :func:`normal_eigensystem`: one complex Schur form, whose
triangular factor is diagonal (to a relative residual gate) exactly when
the input is normal, so its unitary factor is an orthonormal eigenbasis
however the eigenvalues cluster.  Both routes keep the algebraic
identities of the calculus (conjugation covariance, phase equivariance
of rounding) true to rounding error.

Every maximum of norms and every norm gate goes through one screened
kernel, :func:`largest_norm`.  A slice's Frobenius norm F bounds its
operator norm from both sides, ||x|| <= F <= sqrt(rank) ||x|| (Golub and
Van Loan, Matrix Computations, 2.3), and costs one pass over the entries.
A slice with F at or under a gate's tolerance passes it, and a slice with
F under the largest lower bound F/sqrt(rank) of any slice cannot be the
maximum; one batched SVD then takes only the slices left.  The screen is
exact: both comparisons carry the relative margin SCREEN_MARGIN (plus
1e-14 per entry), far above the rounding of either computed norm, and an
absolute 1e-150 for underflow in the squared entries, so a skipped slice
is one whose computed operator norm could not have changed the answer.
Values and first maximizing slices are bit for bit those of a full batched
SVD, whose slices do not depend on the rest of the stack.  The Frobenius
pass is also the finiteness check of the kernel's input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Unitarization constants used by the lifting pipelines.  EPS0 is the polar
# target radius; values are unitarized only when within UNITARIZE_EPS of a
# unitary, which guarantees the polar part moves them by less than EPS0
# (singular values are 1-Lipschitz in the operand, so
# ||polar(a) - u|| <= ||polar(a) - a|| + ||a - u|| < 2 * UNITARIZE_EPS).
EPS0 = 1.0 / (6 * 34)
UNITARIZE_EPS = EPS0 / 2

# Logs of unitaries within this distance of 1 take the half-plane series.
HALF_PLANE_RADIUS = 0.5
# ||h||^2 = sin^2(2 arcsin(1/4)) on the rim of that disc (module docstring).
ARCSIN_CAP = 15 / 64
# Paterson-Stockmeyer block size: the powers z, z^2, z^3 are kept, and the
# cap's degree takes 9 products.
_SERIES_STEP = 3


def _arcsin_series():
    """The coefficients (-1)^k c_k, k = 0 .. K, of q(z) = p(-z) (module
    docstring), and for each degree k < K the largest rho^2 (to 2^-60) at
    which the remainder bound c_{k+1} rho^(2k+2) / (1 - rho^2) is at most
    2^-53; K is the first degree whose bound holds at ARCSIN_CAP."""
    coef, limits = [1.0], []
    while True:
        k = len(coef)
        c = math.comb(2 * k, k) / (4 ** k * (2 * k + 1))
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if c * mid ** k / (1 - mid) <= 2.0 ** -53:
                lo = mid
            else:
                hi = mid
        if lo >= ARCSIN_CAP:
            return np.array(coef), np.array(limits)
        coef.append((-1) ** k * c)
        limits.append(lo)


_SERIES, _RHO2_LIMITS = _arcsin_series()

# Relative margin of the Frobenius screen (module docstring).
SCREEN_MARGIN = 1e-10
_UNDERFLOW = 1e-150


class BranchCutError(ValueError):
    """Spectrum too close to -1 for a principal logarithm."""


class MidpointError(ValueError):
    """An eigenvalue sits on a rounding-cell boundary."""


class NotNormalError(ValueError):
    """Input is too far from normal for eigenvector-based calculus."""


class Blocks:
    """A block-diagonal element, or a stack of them, stored block by block:
    one complex array ``(..., K_s, b_s, b_s)`` per block size ``b_s``, all
    with the same leading axes.  Arithmetic, indexing and ``mean`` act on
    the leading axes of every size at once.  A coefficient array shaped
    for a stack of dense matrices, ``(..., 1, 1)``, gains the block axis
    before it broadcasts."""

    __array_ufunc__ = None          # ndarray (op) Blocks defers to Blocks

    def __init__(self, parts):
        self.parts = tuple(parts)

    @property
    def shape(self) -> tuple:
        return tuple(p.shape for p in self.parts)

    @property
    def lead(self) -> tuple:
        """The leading (stack) axes."""
        return self.parts[0].shape[:-3] if self.parts else ()

    def map(self, f, *others) -> "Blocks":
        """f applied to the parts of self (and of others), size by size."""
        return Blocks(f(*ps) for ps in zip(self.parts, *(o.parts for o in others)))

    def _with(self, other, op) -> "Blocks":
        if isinstance(other, Blocks):
            return self.map(op, other)
        c = np.asarray(other)
        c = c[..., None, :, :] if c.ndim >= 2 else c
        return Blocks(op(p, c) for p in self.parts)

    def __add__(self, other):
        return self._with(other, np.add)

    def __sub__(self, other):
        return self._with(other, np.subtract)

    def __mul__(self, other):
        return self._with(other, np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._with(other, np.true_divide)

    def __matmul__(self, other):
        return self.map(np.matmul, other)

    def __getitem__(self, index) -> "Blocks":
        return Blocks(p[index] for p in self.parts)

    def conj(self) -> "Blocks":
        return Blocks(p.conj() for p in self.parts)

    def swapaxes(self, a: int, b: int) -> "Blocks":
        """Swap two axes counted from the end (the matrix axes)."""
        return Blocks(p.swapaxes(a, b) for p in self.parts)

    def mean(self, axis: int) -> "Blocks":
        return Blocks(p.mean(axis=axis) for p in self.parts)

    def copy(self) -> "Blocks":
        return Blocks(p.copy() for p in self.parts)


def stack(elements):
    """np.stack for arrays, and part by part for Blocks."""
    if isinstance(elements[0], Blocks):
        return Blocks(np.stack(ps) for ps in zip(*(e.parts for e in elements)))
    return np.stack(elements)


def concatenate(elements):
    """np.concatenate along the first axis, part by part for Blocks."""
    if isinstance(elements[0], Blocks):
        return Blocks(np.concatenate(ps) for ps in zip(*(e.parts for e in elements)))
    return np.concatenate(elements)


def read_only_copy(a):
    """A complex copy of an array or of Blocks, made read-only."""
    if isinstance(a, Blocks):
        return a.map(read_only_copy)
    v = np.array(a, dtype=complex)
    v.flags.writeable = False
    return v


def identity_like(a):
    """The identity, shaped like the element or stack a."""
    if isinstance(a, Blocks):
        return a.map(identity_like)
    return np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape).copy()


def adjoint(a):
    """Conjugate transpose of the matrix axes, slice by slice."""
    return a.conj().swapaxes(-1, -2)


def require_finite(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def _require_square(a) -> np.ndarray:
    """a as a complex array of square matrices.  Finiteness is left to the
    gate that follows, except that a non-finite entry is reported before a
    bad shape."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        require_finite(a)
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    return a


def _at_slice(i: int, shape: tuple) -> str:
    """Where flat index i lies in a stack of the given leading shape ('' for
    a single matrix)."""
    if not shape:
        return ""
    return f" at slice {tuple(int(j) for j in np.unravel_index(i, shape))}"


def _svd_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each slice of a stack (0 for empty slices);
    an empty stack takes no SVD."""
    if a.size == 0:
        return np.zeros(a.shape[:-2])
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def _screen(a: np.ndarray):
    """The squared Frobenius norms of the slices of a complex stack
    (..., m, n), flattened to (k,), the largest of them, the stack's float
    view (k, m, 2n) and the screen's factor 1 + margin.  Raises ValueError
    on a non-finite entry; squares that overflow give an infinite norm."""
    m, n = a.shape[-2:]
    x = np.ascontiguousarray(a).reshape(math.prod(a.shape[:-2]), m, n).view(np.float64)
    f2 = np.einsum("kij,kij->k", x, x)
    top = float(f2.max()) if f2.size else 0.0
    if not math.isfinite(top) and not np.isfinite(x).all():
        raise ValueError("matrix has non-finite entries")
    return f2, top, x, 1 + SCREEN_MARGIN + 1e-14 * m * n


def largest_norm(a, floor: float = 0.0):
    """The largest operator norm over the slices of a stack (..., m, n), or
    over the elements of Blocks (an element's norm is its largest block
    norm), and the flat index of the first slice attaining it; (floor, None)
    when no norm exceeds ``floor``.  A single matrix is a stack of one.

    Screened by Frobenius norms (module docstring): a slice is taken into
    the one batched SVD per block size only if its upper bound exceeds
    ``floor`` and reaches the largest lower bound, and an exactly zero
    slice takes none.  So ``largest_norm(x, tol)`` is a gate that takes no
    SVD when every slice is well under tol, and a loop over slabs that
    passes its running maximum as ``floor`` skips the slices that cannot
    beat earlier slabs (ties go to the earlier slab)."""
    blocks = isinstance(a, Blocks)
    parts = [np.asarray(p, dtype=complex) for p in (a.parts if blocks else (a,))]
    screens = [_screen(p) for p in parts]
    # A slice is kept when its upper bound f (1 + margin) + _UNDERFLOW
    # beats max(floor, 0), or reaches the largest lower bound on the
    # maximum, f (1 - margin) / sqrt(min(m, n)) - _UNDERFLOW, if higher.
    lo, strict = max(floor, 0.0), True
    for p, (_, top, _, scale) in zip(parts, screens):
        bound = (math.sqrt(top) * (2 - scale) - _UNDERFLOW) / math.sqrt(
            max(1, min(p.shape[-2:])))
        if bound > lo and math.isfinite(bound):
            lo, strict = bound, False
    best, first = -math.inf, None
    for p, (f2, top, x, scale) in zip(parts, screens):
        cut = (lo - _UNDERFLOW) / scale
        if cut >= 0 and math.isfinite(top):
            keep = f2 > cut * cut if strict else f2 >= cut * cut
        else:                 # every nonzero slice, also when squares overflow
            keep = x.any(axis=(1, 2))
        index = keep.nonzero()[0]
        if index.size:
            norms = _svd_norms(x.view(complex)[index])
            i = int(norms.argmax())
            at = int(index[i]) // (p.shape[-3] if blocks else 1)
            if norms[i] > best or (norms[i] == best and at < first):
                best, first = float(norms[i]), at
    if first is None and floor < 0 and any(s[0].size for s in screens):
        return 0.0, 0         # every slice is exactly zero
    return (best, first) if best > floor else (floor, None)


def _reject_worst(x, tol: float, message: str):
    """Raise ValueError(message % worst) if a slice of the stack x has norm
    over tol; for a stack, name the worst slice."""
    worst, i = largest_norm(x, tol)
    if i is not None:
        raise ValueError((message % worst) + _at_slice(i, x.shape[:-2]))


def operator_norm(a):
    """Largest singular value.  A stack (..., m, n) gives an array with one
    norm per slice, and Blocks the largest block norm per element."""
    if isinstance(a, Blocks):
        norms = np.concatenate([operator_norm(p) for p in a.parts], axis=-1)
        return norms.max(axis=-1) if a.lead else float(norms.max())
    a = require_finite(a)
    norms = _svd_norms(a)
    return norms if a.ndim > 2 else float(norms)


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition a = V diag(eigenvalues) V* of a normal matrix,
    with V unitary."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def normal_eigensystem(a, residual_tol: float = 1e-9) -> SpectralData:
    """Unitary diagonalization of a normal matrix through its complex Schur
    form a = Z T Z*.  Raises NotNormalError when T is not diagonal to
    ``residual_tol`` (relative to max(1, ||a||)) -- the gate for inputs
    that are genuinely not normal.
    """
    a = require_finite(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = largest_norm(a, 1.0)[0]
    t, z = scipy.linalg.schur(a, output="complex")
    lam = np.diag(t).copy()
    off, bad = largest_norm(t - np.diag(lam), residual_tol * scale)
    if bad is not None:
        raise NotNormalError(
            f"matrix is not normal: diagonalization residual {off:.3e} "
            f"exceeds {residual_tol:.1e} * scale")
    return SpectralData(eigenvalues=lam, eigenvectors=z)


def polar_unitary(a, min_singular: float = 1e-10) -> np.ndarray:
    """Polar part a (a*a)^(-1/2) of an invertible matrix, via SVD; slice by
    slice for a stack or Blocks."""
    if isinstance(a, Blocks):
        return a.map(polar_unitary)
    a = require_finite(a)
    u, s, vh = np.linalg.svd(a)
    smallest = np.min(s[..., -1])
    if smallest <= min_singular:
        raise ValueError(
            f"matrix is numerically singular: smallest singular value "
            f"{smallest:.3e} <= {min_singular:.1e}")
    return u @ vh


def _half_plane_log(s: np.ndarray) -> np.ndarray:
    """a q(a^2), a = (u - u*) / 2, for a stack (m, n, n) of unitaries within
    HALF_PLANE_RADIUS of 1: the series of the module docstring, each slice
    to its own degree, made skew-Hermitian with its zeros made +0."""
    m, n = s.shape[0], s.shape[-1]
    a = s - adjoint(s)
    a *= 0.5
    z = a @ a
    del a
    f2, _, _, scale = _screen(z)
    degree = np.searchsorted(_RHO2_LIMITS, np.sqrt(f2) * scale)
    top = int(degree.max(initial=0))
    coef = np.where(np.arange(top + 1) <= degree[:, None], _SERIES[:top + 1], 0.0)
    coef = coef[:, :, None, None]
    powers = [None, z]
    while len(powers) <= min(top, _SERIES_STEP):
        powers.append(powers[-1] @ z)
    # Horner in z^step over the blocks sum_i coef[j + i] z^i, from the top
    # block down; tmp takes each term, and each product by z^step.
    p, tmp = np.zeros_like(z), np.empty_like(z)
    for j in reversed(range(0, top + 1, _SERIES_STEP)):
        if j + _SERIES_STEP <= top:
            np.matmul(p, powers[_SERIES_STEP], out=tmp)
            p, tmp = tmp, p
        p.reshape(m, n * n)[:, ::n + 1] += coef[:, j, :, 0]
        for i in range(1, min(_SERIES_STEP, top + 1 - j)):
            np.multiply(powers[i], coef[:, j + i], out=tmp)
            p += tmp
    del powers, z, _
    np.subtract(s, adjoint(s), out=tmp)
    tmp *= 0.5
    x = tmp @ p
    np.subtract(x, adjoint(x), out=p)
    p *= 0.5
    p += 0.0
    return p


def principal_log_unitary(u, unitary_tol: float = 1e-10,
                          branch_gap: float = 1e-8) -> np.ndarray:
    """Principal logarithm of a unitary: the skew-Hermitian X with
    exp(X) = u and eigenvalue arguments in (-pi, pi).  A stack (..., n, n)
    is taken slice by slice, and Blocks block by block.

    Rejects inputs that are not unitary to ``unitary_tol``.  Slices within
    HALF_PLANE_RADIUS of 1 (the Frobenius screen places most, an SVD the
    rest) take the series of the module docstring in one evaluation:
    log u = i h p(h^2), h = (u - u*) / 2i, with p the arcsin series cut at
    the least degree K whose remainder bound c_{K+1} rho^(2K+2) /
    (1 - rho^2) is at most 2^-53, for rho^2 = ||h^2||_F (1 + margin) capped
    at sin^2(2 arcsin(1/4)) = 15/64.  The other slices go through
    :func:`normal_eigensystem`, and a BranchCutError rejects one whose
    spectrum comes within ``branch_gap`` (in argument) of the cut at -1.
    """
    if isinstance(u, Blocks):
        return u.map(principal_log_unitary)
    u = _require_square(u)
    n = u.shape[-1]
    defect = adjoint(u) @ u
    defect -= np.eye(n)
    _reject_worst(defect, unitary_tol, "input is not unitary: ||u*u - 1|| = %.3e")
    del defect
    stack = u.reshape(math.prod(u.shape[:-2]), n, n)
    # Only slices the Frobenius screen cannot place inside the disc take an SVD.
    gap = stack - np.eye(n)
    f2, _, _, scale = _screen(gap)
    near = f2 <= ((HALF_PLANE_RADIUS - _UNDERFLOW) / scale) ** 2
    unsure = np.flatnonzero(~near)
    if unsure.size:
        near[unsure] = _svd_norms(gap[unsure]) <= HALF_PLANE_RADIUS
    del gap, _
    far = np.flatnonzero(~near)
    if not far.size:
        return _half_plane_log(stack).reshape(u.shape)
    args = np.empty((far.size, n))
    vecs = np.empty((far.size, n, n), dtype=complex)
    for j, i in enumerate(far):
        spec = normal_eigensystem(stack[i])
        args[j] = np.angle(spec.eigenvalues)
        vecs[j] = spec.eigenvectors
    j = int(np.argmax(np.abs(args)))
    gap = np.pi - abs(args.flat[j])
    if gap <= branch_gap:
        raise BranchCutError(
            f"eigenvalue {np.exp(1j * args.flat[j]):.6g} is within {gap:.3e} "
            f"of the branch cut at -1{_at_slice(far[j // n], u.shape[:-2])}")
    x = np.empty_like(stack)
    fast = np.flatnonzero(near)
    if fast.size:
        x[fast] = _half_plane_log(stack[fast])
    y = (vecs * (1j * args)[:, None, :]) @ adjoint(vecs)
    x[far] = (y - adjoint(y)) / 2
    return x.reshape(u.shape)


def exp_skew(x, skew_tol: float = 1e-10) -> np.ndarray:
    """Exponential of a skew-Hermitian matrix, or of each slice of a stack;
    the result is unitary by construction (batched eigendecomposition of
    the Hermitian matrix -i x)."""
    if isinstance(x, Blocks):
        return x.map(exp_skew)
    x = _require_square(x)
    _reject_worst(x + adjoint(x), skew_tol,
                  "input is not skew-Hermitian: ||x + x*|| = %.3e")
    x = (x - adjoint(x)) / 2
    theta, v = np.linalg.eigh(-1j * x)
    return (v * np.exp(1j * theta)[..., None, :]) @ adjoint(v)


def spectral_round_unitary(w, d: int, unitary_tol: float = 1e-10,
                           midpoint_gap: float = 1e-6,
                           return_spectral: bool = False):
    """Round the spectrum of a unitary to the d-th roots of unity.

    Each eigenvalue is replaced by the nearest d-th root; eigenvectors are
    reused, so the output z satisfies z^d = 1 and commutes with w.  The map
    is phase-equivariant: rounding lam*w equals lam times rounding w for
    any d-th root of unity lam.  Eigenvalues within ``midpoint_gap`` (in
    argument) of a cell midpoint exp(i*pi*(2k+1)/d) are rejected.  With
    ``return_spectral`` the result is (z, the eigensystem of w, ks), where
    eigenvalue j of w is rounded to exp(2 pi i ks[j] / d).
    """
    w = require_finite(w)
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    _reject_worst(adjoint(w) @ w - np.eye(w.shape[-1]), unitary_tol,
                  "input is not unitary: ||w*w - 1|| = %.3e")
    spec = normal_eigensystem(w)
    args = np.angle(spec.eigenvalues)
    cell = 2 * np.pi / d
    pos = np.mod(args, cell)
    margin = np.abs(pos - cell / 2)
    if np.any(margin <= midpoint_gap):
        i = int(np.argmin(margin))
        raise MidpointError(
            f"eigenvalue {spec.eigenvalues[i]:.8g} is within {margin[i]:.3e} "
            f"of a rounding midpoint for d = {d}")
    ks = np.round(args / cell).astype(int) % d
    rounded = np.exp(2j * np.pi * ks / d)
    v = spec.eigenvectors
    z = (v * rounded) @ v.conj().T
    if return_spectral:
        return z, spec, ks
    return z


def round_to_projection(b, hermitian_tol: float = 1e-10,
                        band: tuple = (0.4, 0.6)) -> np.ndarray:
    """Spectral projection of a self-adjoint matrix onto eigenvalues > 1/2.

    Rejects inputs with an eigenvalue inside the forbidden band around 1/2,
    where the cut would be unstable.
    """
    b = require_finite(b)
    _reject_worst(b - adjoint(b), hermitian_tol,
                  "input is not self-adjoint: ||b - b*|| = %.3e")
    vals, vecs = np.linalg.eigh((b + b.conj().T) / 2)
    lo, hi = band
    inside = (vals >= lo) & (vals <= hi)
    if inside.any():
        bad = vals[inside][0]
        raise ValueError(
            f"eigenvalue {bad:.6g} lies in the forbidden band [{lo}, {hi}]")
    keep = vals > 0.5
    return (vecs[:, keep]) @ (vecs[:, keep].conj().T)

