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
logarithm of a unitary u takes the same route on the half-plane: when
||u - 1|| <= 1/2, every eigenvalue argument satisfies
|theta| <= 2 arcsin(1/4) < pi/2, where sin is injective, so

    log u = i arcsin((u - u*) / 2i)

is again a function of a Hermitian matrix, with no eigenvalue clustering
to resolve.  The correctors only take logs inside that disc: the one-step
correctors log rho(k)* rho(kg) rho(g)* and its cocycle analogue, which are
within the measured defect r <= 1/5 of 1, and the averaging estimate
requires ||u - 1|| <= 1/2.  Any other unitary, and every spectral
rounding, goes through :func:`normal_eigensystem`: one complex Schur form,
whose triangular factor is diagonal (to a relative residual gate) exactly
when the input is normal, so its unitary factor is an orthonormal
eigenbasis however the eigenvalues cluster.  Both routes keep the
algebraic identities of the calculus (conjugation covariance, phase
equivariance of rounding) true to rounding error.

Equality of matrices is always tested through an explicit tolerance, never
with exact float comparison; see :func:`close`.
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

# Logs of unitaries within this distance of 1 take the half-plane route.
HALF_PLANE_RADIUS = 0.5


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

    def reduce(self, f):
        """The largest block value of f, which maps a part (..., K, b, b)
        to one value per block (..., K): one value per element."""
        out = 0.0
        for p in self.parts:
            out = np.maximum(out, f(p).max(axis=-1))
        return out if np.ndim(out) else float(out)

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
    a = require_finite(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    return a


def _at_slice(i: int, shape: tuple) -> str:
    """Where flat index i lies in a stack of the given leading shape ('' for
    a single matrix)."""
    if not shape:
        return ""
    return f" at slice {tuple(int(j) for j in np.unravel_index(i, shape))}"


def _reject_worst(defects, tol: float, message: str):
    """Raise ValueError(message % worst) if any slice's defect exceeds tol;
    for a stack, name the worst slice."""
    d = np.asarray(defects)
    if d.size == 0:
        return
    i = int(np.argmax(d))
    if d.flat[i] > tol:
        raise ValueError((message % d.flat[i]) + _at_slice(i, d.shape))


def operator_norm(a):
    """Largest singular value.  A stack (..., m, n) gives an array with one
    norm per slice, and Blocks the largest block norm per element."""
    if isinstance(a, Blocks):
        return a.reduce(operator_norm)
    a = require_finite(a)
    if a.ndim > 2:
        if a.size == 0:
            return np.zeros(a.shape[:-2])
        return np.linalg.svd(a, compute_uv=False)[..., 0]
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def close(a, b, tol: float) -> bool:
    """Tolerance-based equality in operator norm."""
    return operator_norm(np.asarray(a) - np.asarray(b)) <= tol


def unitarity_defect(u):
    """||u*u - 1||, per slice for a stack."""
    if isinstance(u, Blocks):
        return u.reduce(unitarity_defect)
    u = np.asarray(u, dtype=complex)
    return operator_norm(adjoint(u) @ u - np.eye(u.shape[-1]))


def hermiticity_defect(a) -> float:
    a = np.asarray(a, dtype=complex)
    return operator_norm(a - a.conj().T)


def skewness_defect(x):
    """||x + x*||, per slice for a stack."""
    x = np.asarray(x, dtype=complex)
    return operator_norm(x + adjoint(x))


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
    scale = max(1.0, operator_norm(a))
    t, z = scipy.linalg.schur(a, output="complex")
    lam = np.diag(t).copy()
    off = operator_norm(t - np.diag(lam))
    if off > residual_tol * scale:
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


def principal_log_unitary(u, unitary_tol: float = 1e-10,
                          branch_gap: float = 1e-8) -> np.ndarray:
    """Principal logarithm of a unitary: the skew-Hermitian X with
    exp(X) = u and eigenvalue arguments in (-pi, pi).  A stack (..., n, n)
    is taken slice by slice.

    Slices within HALF_PLANE_RADIUS of 1 take the half-plane route through
    one batched ``eigh``; the others go through :func:`normal_eigensystem`.
    Rejects inputs whose spectrum comes within ``branch_gap`` (in argument)
    of the branch cut at -1.
    """
    if isinstance(u, Blocks):
        return u.map(principal_log_unitary)
    u = _require_square(u)
    _reject_worst(unitarity_defect(u), unitary_tol,
                  "input is not unitary: ||u*u - 1|| = %.3e")
    n = u.shape[-1]
    stack = u.reshape(math.prod(u.shape[:-2]), n, n)
    args = np.empty(stack.shape[:2])
    vecs = np.empty_like(stack)
    near = operator_norm(stack - np.eye(n)) <= HALF_PLANE_RADIUS
    fast = np.flatnonzero(near)
    if fast.size:
        s = stack[fast]
        sines, vecs[fast] = np.linalg.eigh(-0.5j * (s - adjoint(s)))
        args[fast] = np.arcsin(np.clip(sines, -1.0, 1.0))
    for i in np.flatnonzero(~near):
        spec = normal_eigensystem(stack[i])
        args[i] = np.angle(spec.eigenvalues)
        vecs[i] = spec.eigenvectors
    if args.size:
        i = int(np.argmax(np.abs(args)))
        gap = np.pi - abs(args.flat[i])
        if gap <= branch_gap:
            raise BranchCutError(
                f"eigenvalue {np.exp(1j * args.flat[i]):.6g} is within {gap:.3e} "
                f"of the branch cut at -1{_at_slice(i // n, u.shape[:-2])}")
    x = (vecs * (1j * args)[:, None, :]) @ adjoint(vecs)
    return ((x - adjoint(x)) / 2).reshape(u.shape)


def exp_skew(x, skew_tol: float = 1e-10) -> np.ndarray:
    """Exponential of a skew-Hermitian matrix, or of each slice of a stack;
    the result is unitary by construction (batched eigendecomposition of
    the Hermitian matrix -i x)."""
    if isinstance(x, Blocks):
        return x.map(exp_skew)
    x = _require_square(x)
    _reject_worst(skewness_defect(x), skew_tol,
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
    defect = unitarity_defect(w)
    if defect > unitary_tol:
        raise ValueError(f"input is not unitary: ||w*w - 1|| = {defect:.3e}")
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
    defect = hermiticity_defect(b)
    if defect > hermitian_tol:
        raise ValueError(f"input is not self-adjoint: ||b - b*|| = {defect:.3e}")
    vals, vecs = np.linalg.eigh((b + b.conj().T) / 2)
    lo, hi = band
    inside = (vals >= lo) & (vals <= hi)
    if inside.any():
        bad = vals[inside][0]
        raise ValueError(
            f"eigenvalue {bad:.6g} lies in the forbidden band [{lo}, {hi}]")
    keep = vals > 0.5
    return (vecs[:, keep]) @ (vecs[:, keep].conj().T)

