"""Complex matrix arithmetic and the functional calculus used by the
correction pipelines: operator norm, polar part, principal logarithm of
unitaries, exponential of skew-Hermitian matrices, spectral rounding.

Matrices are plain complex numpy arrays.  The log, exp and polar kernels
also accept stacks ``(..., n, n)`` and work slice by slice, and
block-diagonal elements stored block by block (:class:`Blocks`), which
they take one batched call per block size.  The one norm kernel,
:func:`largest_norm`, takes the largest operator norm over such a stack
(the norm of a Blocks element is its largest block norm), so the norm of
one matrix is ``largest_norm(x)[0]``; :func:`readout_norm` reads a
certified figure at rounding level as its screen bound.  Each gate's
tolerance is a constant of the kernel that gates with it, and its
docstring names it.

The log and the exp are truncated power series, evaluated by one
Paterson-Stockmeyer kernel (SIAM J. Comput. 2, 1973): the powers z and z^2
are kept, each block of three coefficients is one contraction over them
(and the Horner product of the blocks above), and Horner runs in z^3.  Each
slice takes its own degree; one evaluation takes the slices it is given
to the largest, with a slice's coefficients past its own degree set to
zero.  The terms so added are exact zeros, so a slice's result (its zeros
made +0) does not depend on the rest of its stack: the log's slices of
degree 0 (below) take no series, and the rest one evaluation, to their
largest degree.  A stack of degree at most 1 skips the powers and the
contraction: its series is the two-term c_0 + c_1 z, entry by entry,
since the contraction's other terms, 0 z^2 and 1 times the Horner product
(still zero), are exact zeros; adding a zero changes no value but may flip
the sign of a zero result, and each kernel's closing ``+ 0.0`` makes
every zero +0, so the bits are those of the contraction.

The correctors only take logs within HALF_PLANE_RADIUS = 1/2 of 1: the
one-step correctors log rho(k)* rho(kg) rho(g)* and its cocycle analogue,
within the measured defect r <= 1/5 of 1, and the averaging estimate
requires ||u - 1|| <= 1/2.  The log refuses any other slice.  On that disc
every eigenvalue argument satisfies |theta| <= 2 arcsin(1/4) < pi/2, where
sin is injective, so the Hermitian h = (u - u*) / 2i, whose eigenvalues
are sin(theta), gives

    log u = i arcsin(h) = i h p(h^2),   p(y) = sum_k c_k y^k,
    c_k = C(2k, k) / (4^k (2k + 1)),

with ||h||^2 <= sin^2(2 arcsin(1/4)) = 15/64 (ARCSIN_CAP).  The kernel
takes a = i h = (u - u*) / 2 and log u = a q(a^2), q(z) = p(-z), so that
no complex scalar enters.  With rho^2 = ||h^2||_F times the Frobenius
screen's rounding margin, the terms past degree K weigh at most
rho c_{K+1} rho^(2K+2) / (1 - rho^2) (the c_k decrease), and each slice
takes the least K with c_{K+1} rho^(2K+2) / (1 - rho^2) <= 2^-53, under
the rounding of ||log u||.  A bound over the cap counts as the cap, whose
degree is K = 21: its remainder factor, 4.8e-17, leaves room for the
rounding of the radius test and a unitarity defect of 1e-10.  At K = 0
(rho^2 under 6.7e-16, where a corrector's last steps sit) q = 1 and the
log is first order: a q = a adds only exact zeros, and the odd part
(x - x*)/2 of x = a is a to the bit, as a = -a* exactly.  Since
||a^2||_F <= ||a||_F^2, a slice whose ||a||_F^2, times the square of the
screen's factor, is under that limit has degree 0, and its log is a + 0
with no a^2: the computed ||a^2||_F exceeds ||a||_F^2 by a rounding far
under the screen's margin.  One ``vdot`` first tries the whole stack, with
the margins of the one-pass exit below, and the slices a per-slice pass
leaves take a^2 and the series.

The exponential of a skew-Hermitian x is its Taylor series (Higham,
Functions of Matrices, SIAM 2008, ch. 10; Moler and Van Loan, SIAM Rev.
45, 2003).  With rho = ||x||_F times the screen's margin, the terms past
degree K weigh at most rho^(K+1) / (K+1)! e^rho, and each slice takes the
least K that puts this under 2^-53, the rounding of ||exp x|| = 1.  A
slice with rho over EXP_CAP = 1 (K = 18) is scaled by the least 2^-s that
brings it under, and its series squared s times.  A squaring doubles the
departure from unitarity, so each is followed by one Newton-Schulz step
f - f (f* f - 1) / 2 (Higham, ch. 8), which takes a departure d to about
3 d^2 / 4 plus rounding: the result stays unitary to rounding at any norm.

Spectral rounding takes one ``eigh`` of the Hermitian part of
exp(-i pi/(2d)) w, whose eigenvalues are cos(theta - pi/(2d)), and reads
each eigenvalue of w off as (V* w V)_jj.  The correctors admit only
spectra with every argument within pi/(2d) of a d-th root; there
theta - pi/(2d) lies on one of the arcs [2 pi k/d - pi/d, 2 pi k/d],
which with their mirror images tile the circle, so the cosine is
one-to-one and the eigenspaces of the Hermitian part are those of w.  A
residual gate ||w V - V diag(lam)|| <= 1e-9 refuses what it cannot
separate: near collisions cos(x) = cos(-x) outside that set or within
about 1e-7 of its edge.  It needs no factor max(1, ||w||): w passed the
unitarity gate at 1e-10, so ||w|| <= sqrt(1 + 1e-10), a factor under
1 + 5e-11.

Every LAPACK call goes through one entry point per decomposition: the
singular values, the full SVD behind the polar part, the Hermitian
``eigh`` and the reduced QR.  Each calls numpy.linalg's own gufunc in
``numpy.linalg._umath_linalg`` (private numpy API, named otherwise in
numpy 1.x) with the signature and error state that np.linalg gives it, and
skips np.linalg's Python wrapper: its bits are np.linalg's, and a failure
raises np.linalg's LinAlgError with numpy's message.  A numpy without
these names fails the import, naming them.

Every maximum of norms and every norm gate goes through one screened
kernel, :func:`largest_norm`.  A slice's Frobenius norm F bounds its
operator norm from both sides, ||x|| <= F <= sqrt(rank) ||x|| (Golub and
Van Loan, Matrix Computations, 2.3), and costs one pass over the entries.
The lower side alone settles a test ||x|| > floor (``_norm_exceeds``) when
a slice's F, over sqrt(min(m, n)) and the screen's margin, exceeds floor.
If every F, with the screen's margin (below), is at or under a floor >= 0
(a gate's tolerance), that pass is all: no computed norm can exceed it.
A finite floor > 0 is first tried with one pass over the whole stack, one
``vdot``: the largest slice F is at most the stack's Frobenius norm, so if
that norm meets the floor every F does.  A sum of 2N squares (N entries)
is good to 2N u relative, so this exit adds 2N u to the screen's margin;
an infinite or NaN sum goes on to the per-slice pass, which reports a
non-finite entry.
Else the slice of largest F is SVD'd alone first; a slice with F under its
exact norm cannot be the maximum.  The rest take the Schatten-8 bound

    ||x|| <= ||x||_8 = (sum_j s_j^8)^(1/8) = F ||(y y*)^2||_F^(1/4),

over the singular values s_j, with y = x / F and y y* the Gram of its
smaller side (Bhatia, Matrix Analysis, IV.2): two batched products and
one einsum.  Since ||x||_8 <= rank^(1/8) ||x||, where F over-reads a
spread spectrum by up to sqrt(rank), ||x||_8 over-reads it by at most
rank^(1/8) (1.54 at rank 32).  One batched SVD then takes only the slices
whose Schatten-8 bound reaches the cut.

The screen is exact: the comparisons of both bounds carry the relative
margin SCREEN_MARGIN plus 1e-14 l k^(3/2), with k = min(m, n) and
l = max(m, n), far above the rounding of either computed bound, and an
absolute 1e-150 for underflow in the squared entries, so a skipped slice
is one whose computed operator norm could not have changed the answer.
With u = 2^-53 the rounding runs as follows.  F, a sum of 2mn squares, is
good to mn u.  y = x / F has ||y||_F = 1 to that rounding and no entry
over 1, so no power of an entry overflows, and an underflowing product is
off by at most 2^-1074.  The computed Gram g = y y* is off by at most
sqrt(2) (l + 2) u ||y||_F^2 in Frobenius norm (Higham, Accuracy and
Stability of Numerical Algorithms, 3.5-3.6, for complex products), and
h = g^2 then by sqrt(2) (2l + k + 6) u to first order, as ||g||_F <= 1.
Since ||h||_F^2 = sum_j s_j^8 >= k^-3 (sum_j s_j^2)^4 = k^-3 for y, the
relative error of ||h||_F is at most sqrt(2) k^(3/2) (2l + k + 6) u,
growing like n^(5/2) u for n x n slices, and the fourth root divides it
by 4; the division by F, the einsum and the last powers add
(k^2/4 + sqrt(k) + 3) u.  All of it stays under 8 l k^(3/2) u, less than
1e-15 l k^(3/2) (4e-12 to first order at n = 64) and so a tenth of the
size term, and an SVD's relative error, a modest multiple of n u, lies
far under SCREEN_MARGIN.  A slice whose squares underflow to F = 0 has
norm far under 1e-150 and reads 0, inside the absolute term.
Values and first maximizing slices are bit for bit those of a full batched
SVD, whose slices do not depend on the rest of the stack.  The Frobenius
pass is also the finiteness check of the kernel's input.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

_MISSING = [g for g in ("svd", "svd_f", "eigh_lo", "qr_r_raw", "qr_reduced")
            if not hasattr(_umath_linalg, g)]
if _MISSING:
    raise ImportError(f"equifix needs numpy >= 2.4.6; numpy {np.__version__} lacks "
                      f"numpy.linalg._umath_linalg.{{{', '.join(_MISSING)}}}")

# Logs are taken of unitaries within this distance of 1.
HALF_PLANE_RADIUS = 0.5
# ||h||^2 = sin^2(2 arcsin(1/4)) on the rim of that disc (module docstring).
ARCSIN_CAP = 15 / 64
# The exp's series takes rho <= EXP_CAP; a larger slice is scaled into it.
EXP_CAP = 1.0
# Paterson-Stockmeyer block size: the log's cap degree takes 9 products.
_SERIES_STEP = 3


def _truncation(term, factor, cap):
    """The coefficient rows of a series and its degree limits.  Row d, block
    j holds term(k), k = 3j, 3j + 1, 3j + 2 (zero past d), and 1, the weight
    of the Horner product (``_series``).  Limit k is the largest t (to
    2^-60 of 2 cap) at which |term(k + 1)| t^(k + 1) factor(t), a bound on
    the terms past degree k, is at most 2^-53; the last degree K is the
    first whose bound holds at t = cap."""
    coef, limits = [term(0)], []
    while True:
        k, lo, hi = len(coef) - 1, 0.0, 2 * cap
        c = abs(term(k + 1))
        for _ in range(60):
            mid = (lo + hi) / 2
            fits = c * mid ** (k + 1) * factor(mid) <= 2.0 ** -53
            lo, hi = (mid, hi) if fits else (lo, mid)
        if lo >= cap:
            break
        coef.append(term(k + 1))
        limits.append(lo)
    rows = np.tril(np.tile(coef, (k + 1, 1)))
    rows = np.pad(rows, ((0, 0), (0, -(k + 1) % _SERIES_STEP)))
    rows = np.pad(rows.reshape(k + 1, -1, _SERIES_STEP), ((0, 0), (0, 0), (0, 1)),
                  constant_values=1)
    return rows.astype(complex), np.array(limits)


# The rows of q(z) = p(-z) and its degree limits in rho^2, and those of the
# Taylor series of exp and its degree limits in rho (module docstring).
_ARCSIN, _RHO2_LIMITS = _truncation(
    lambda k: (-1) ** k * math.comb(2 * k, k) / (4 ** k * (2 * k + 1)),
    lambda t: 1 / (1 - t), ARCSIN_CAP)
_EXP, _RHO_LIMITS = _truncation(lambda k: 1 / math.factorial(k), math.exp, EXP_CAP)

# Relative margin of the Frobenius and Schatten-8 screens (module docstring).
SCREEN_MARGIN = 1e-10
_UNDERFLOW = 1e-150
# At most this, a readout is the screen's bound (``readout_norm``).
READOUT_FLOOR = 1e-14


class MidpointError(ValueError):
    """An eigenvalue sits on a rounding-cell boundary."""


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


def read_only(model):
    """``model``, with every array it holds (through tuples, lists and
    object fields) made read-only: a model shared by many callers, such as
    a cached one, then raises on a write instead of changing under them."""
    if isinstance(model, np.ndarray):
        model.flags.writeable = False
    elif isinstance(model, (tuple, list)) or hasattr(model, "__dict__"):
        for part in vars(model).values() if hasattr(model, "__dict__") else model:
            read_only(part)
    return model


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


def _lapack(name: str, signature: str, message: str):
    """The entry point to numpy.linalg's LAPACK gufunc ``name`` (module
    docstring): it takes np.linalg's signature for complex input and runs
    in np.linalg's error state, where a failure raises LinAlgError(message)."""
    def fail(err, flag):
        raise LinAlgError(message)

    @np.errstate(call=fail, invalid="call", over="ignore", divide="ignore",
                 under="ignore")
    def call(*args):
        return getattr(_umath_linalg, name)(*args, signature=signature)
    return call


# Singular values (descending), the full SVD (u, s, vh), the eigensystem of
# a Hermitian stack from its lower triangle (values ascending), and QR.
_svdvals = _lapack("svd", "D->d", "SVD did not converge")
_svd = _lapack("svd_f", "D->DdD", "SVD did not converge")
_eigh = _lapack("eigh_lo", "D->dD", "Eigenvalues did not converge")
_QR_FAILED = "Incorrect argument found while performing QR factorization"
_qr_r, _qr_q = (_lapack(g, sig, _QR_FAILED) for g, sig in (("qr_r_raw", "D->D"),
                                                          ("qr_reduced", "DD->D")))


def _qr(a):
    """q, r: the reduced QR decomposition of each slice of a complex stack."""
    a = np.array(a, dtype=complex)
    tau = _qr_r(a)                                        # writes r over a
    return _qr_q(a, tau), np.triu(a[..., :min(a.shape[-2:]), :])


def _svd_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each slice of a stack (0 for empty slices);
    an empty stack takes no SVD."""
    if a.size == 0:
        return np.zeros(a.shape[:-2])
    return _svdvals(a)[..., 0]


@functools.lru_cache
def _scale(m: int, n: int) -> float:
    """The screen's factor 1 + margin for slices m x n (module docstring)."""
    return 1 + SCREEN_MARGIN + 1e-14 * max(m, n) * min(m, n) ** 1.5


def _screen(a: np.ndarray):
    """The squared Frobenius norms f2 of the slices of a complex stack
    (..., m, n), flattened to (k,), the index i of the first largest and
    its value top (0 and 0.0 for no slice), and the stack as a contiguous
    (k, m, n) array.  Raises ValueError on a non-finite entry; squares that
    overflow give an infinite norm."""
    m, n = a.shape[-2:]
    x = np.ascontiguousarray(a).reshape(math.prod(a.shape[:-2]), m, n)
    f2 = _frobenius2(x)
    i = int(f2.argmax()) if f2.size else 0
    top = float(f2[i]) if f2.size else 0.0
    if not math.isfinite(top) and not np.isfinite(x).all():
        raise ValueError("matrix has non-finite entries")
    return f2, i, top, x


def _frobenius2(x: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of each slice of a contiguous complex
    stack (k, m, n), as a (k,) array."""
    f = x.view(np.float64)
    return np.einsum("kij,kij->k", f, f)


def _stack_bound(a: np.ndarray) -> float:
    """An upper bound on the Frobenius norm of every slice of a complex
    stack (..., m, n): the Frobenius norm of the whole stack, from one
    ``vdot`` of its float view, times the screen's factor plus the
    rounding of a sum of 2 a.size squares (module docstring).  Infinite or
    NaN when the sum overflows or an entry is not finite."""
    x = a.reshape(-1).view(np.float64)
    return math.sqrt(np.vdot(x, x)) * (_scale(*a.shape[-2:]) + a.size * 2.0 ** -52)


def _schatten8(x: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """The Schatten-8 norm F ||(y y*)^2||_F^(1/4), y = x / F, of each slice
    of a complex stack x (k, m, n) with squared Frobenius norms f2, with
    y y* the Gram of the smaller side: an upper bound on the operator norm
    (module docstring).  A slice with f2 = 0 reads 0."""
    f = np.sqrt(f2)
    y = x / np.where(f > 0, f, 1)[:, None, None]
    if y.shape[-2] > y.shape[-1]:
        y = adjoint(y)
    g = y @ adjoint(y)
    g = (g @ g).view(np.float64)
    return f * np.einsum("kij,kij->k", g, g) ** 0.125


def largest_norm(a, floor: float = 0.0):
    """The largest operator norm over the slices of a stack (..., m, n), or
    over the elements of Blocks (an element's norm is its largest block
    norm), and the flat index of the first slice attaining it; (floor, None)
    when no norm exceeds ``floor``.  A single matrix is a stack of one.

    Screened by two upper bounds (module docstring): a slice is SVD'd only
    if its Frobenius norm and then its Schatten-8 norm exceed ``floor`` and
    reach the exact norm of the slice of largest Frobenius norm, SVD'd
    first; an exactly zero slice takes none.  A gate ``largest_norm(x, tol)``
    whose whole stack has Frobenius norm F (1 + margin + 2N u) + 1e-150
    <= tol returns after one pass over it, one whose slices all have
    F (1 + margin) + 1e-150 <= tol after the per-slice Frobenius pass, as
    no computed norm can then exceed tol, and a loop over slabs that passes
    its running maximum as ``floor`` skips the slices that cannot beat
    earlier slabs (ties go to the earlier slab).  Blocks of mixed sizes
    are such a loop over their sizes, with ties going to the earlier
    element."""
    blocks = isinstance(a, Blocks)
    if blocks and len(a.parts) != 1:
        best, first = floor, None
        for p in a.parts:
            v, at = largest_norm(Blocks((p,)), best if first is None else
                                 math.nextafter(best, -math.inf))
            if at is not None and (first is None or v > best or at < first):
                best, first = v, at
        return best, first
    a = np.asarray(a.parts[0] if blocks else a, dtype=complex)
    per = a.shape[-3] if blocks else 1                  # slices per element
    # No slice's norm exceeds the Frobenius norm of the whole stack: a gate
    # that bound meets ends after one pass, with no per-slice one.  A
    # non-finite or overflowing sum fails the test and goes on.
    if 0 < floor < math.inf and _stack_bound(a) + _UNDERFLOW <= floor:
        return floor, None
    f2, i, top, x = _screen(a)
    scale = _scale(*a.shape[-2:])
    # A slice is kept when its upper bounds f and then s8, each times
    # (1 + margin) plus _UNDERFLOW, beat max(floor, 0), or reach the exact
    # norm, if higher, of slice i (largest f), SVD'd alone first.  When no
    # f beats the floor, none is: return at once.
    bound = math.sqrt(top) * scale + _UNDERFLOW
    if bound <= floor:
        return floor, None
    lo, strict, best, first = max(floor, 0.0), True, -math.inf, None
    if 0 < top and bound > lo:
        best, first = float(_svd_norms(x[i])), i // per
        lo, strict = (best, False) if best > lo else (lo, strict)
    cut = (lo - _UNDERFLOW) / scale
    bounded = cut >= 0 and math.isfinite(top)
    if bounded:
        keep = f2 > cut * cut if strict else f2 >= cut * cut
    else:                     # every nonzero slice, also when squares overflow
        keep = x.any(axis=(1, 2))
    if first is not None:
        keep[i] = False
    index = keep.nonzero()[0]
    if bounded and index.size:
        # The same cut on the Schatten-8 bound of the slices left.
        s8 = _schatten8(x[index], f2[index])
        index = index[s8 > cut if strict else s8 >= cut]
    if index.size:
        norms = _svd_norms(x[index])
        j = int(norms.argmax())
        at = int(index[j]) // per
        if norms[j] > best or (norms[j] == best and at < first):
            best, first = float(norms[j]), at
    if first is None and floor < 0 and f2.size:
        return 0.0, 0         # every slice is exactly zero
    return (best, first) if best > floor else (floor, None)


def readout_norm(a, floor: float) -> float:
    """``largest_norm(a, floor)[0]``, floor >= 0, for a figure a check
    compares with a fixed bound, with no SVD of a slice whose screen bound
    (its Frobenius norm times the screen's factor, plus 1e-150; 0.0 for a
    zero slice) is at most READOUT_FLOOR: that bound stands in for its
    norm.  So the figure is never below the exact one, exact when over
    READOUT_FLOOR, and a maximum over slices, the same in any chunking."""
    for part in a.parts if isinstance(a, Blocks) else (a,):
        f2, _, top, x = _screen(np.asarray(part, dtype=complex))
        scale, high = _scale(*x.shape[-2:]), None
        if math.sqrt(top) * scale + _UNDERFLOW > READOUT_FLOOR:   # some slice's SVD
            high = np.sqrt(f2) * scale + _UNDERFLOW > READOUT_FLOOR
            top = float(f2[~high].max(initial=0.0))
        if top:
            floor = max(floor, math.sqrt(top) * scale + _UNDERFLOW)
        if high is not None:
            floor = largest_norm(x if high.all() else x[high], floor)[0]
    return floor


def _norm_exceeds(a, floor: float) -> bool:
    """Whether some slice of a stack (..., m, n) has operator norm over
    ``floor`` >= 0, as ``largest_norm(a, floor)`` says, with no SVD when
    some slice's squared Frobenius norm exceeds floor^2 min(m, n) times
    the square of the screen's factor: its norm is then over the floor by
    the screen's margin (module docstring)."""
    m, n = a.shape[-2:]
    if _screen(a)[2] > floor * floor * min(m, n) * _scale(m, n) ** 2:
        return True
    return largest_norm(a, floor)[1] is not None


def _reject_worst(x, tol: float, message: str):
    """Raise ValueError(message % worst) if a slice of the stack x has norm
    over tol; for a stack, name the worst slice."""
    worst, i = largest_norm(x, tol)
    if i is not None:
        raise ValueError((message % worst) + _at_slice(i, x.shape[:-2]))


def _polar_parts(a):
    """Polar parts u vh of a stack and its singular values s, from one SVD."""
    u, s, vh = _svd(require_finite(a))
    return u @ vh, s


def polar_unitary(a) -> np.ndarray:
    """Polar part a (a*a)^(-1/2) of an invertible matrix, slice by slice for
    a stack or Blocks; rejects a smallest singular value at or under 1e-10."""
    if isinstance(a, Blocks):
        return a.map(polar_unitary)
    q, s = _polar_parts(a)
    smallest = s.min(initial=math.inf)
    if smallest <= 1e-10:
        raise ValueError(
            f"matrix is numerically singular: smallest singular value "
            f"{smallest:.3e} <= 1e-10")
    return q


def _series(z: np.ndarray, coef: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """sum_k c_k z^k for each slice of a stack (m, n, n), with c its row of
    ``coef`` (``_truncation``) at its entry of ``degree``: one
    Paterson-Stockmeyer evaluation to the largest degree, or c_0 + c_1 z
    when that is at most 1 (module docstring).  The result is written over
    z."""
    m, n = z.shape[0], z.shape[-1]
    top = int(degree.max(initial=0))
    if top <= 1:
        c = coef[degree, 0]
        z *= c[:, 1, None, None]
        z.reshape(m, n * n)[:, ::n + 1] += c[:, :1]
        return z
    blocks = -(-(top + 1) // _SERIES_STEP)
    c = coef[degree, :blocks]
    # Each slice's kept powers z, z^2 and the Horner product of the blocks
    # above side by side, so that a block is one contraction.
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


def principal_log_unitary(u) -> np.ndarray:
    """Principal logarithm of a unitary within HALF_PLANE_RADIUS of 1, whose
    eigenvalue arguments lie in (-pi/2, pi/2): the arcsin series of the
    module docstring, slice by slice for a stack (..., n, n) and block by
    block for Blocks.  Rejects inputs that are not unitary to 1e-10, and
    slices with ||u - 1|| over 1/2, naming the worst."""
    if isinstance(u, Blocks):
        return u.map(principal_log_unitary)
    u = _require_square(u)
    n, one = u.shape[-1], np.eye(u.shape[-1])
    _reject_worst(adjoint(u) @ u - one, 1e-10,
                  "input is not unitary: ||u*u - 1|| = %.3e")
    _reject_worst(u - one, HALF_PLANE_RADIUS,
                  "unitary outside the log's disc: ||u - 1|| = %.3e > 1/2")
    s = u.reshape(math.prod(u.shape[:-2]), n, n)
    a, scale = (s - adjoint(s)) * 0.5, _scale(n, n)
    # The slices that their ||a||_F does not put at degree 0 (module
    # docstring) take a^2 and one series, to their largest degree.  a is
    # dropped while the series holds its five stacks and made again for
    # x = a p: keeping it raised the peak by one stack, to 6.05 stacks on a
    # stack with no degree-0 slice.
    rest = np.flatnonzero(_frobenius2(a) * (scale * scale) > _RHO2_LIMITS[0]) \
        if _stack_bound(a) ** 2 > _RHO2_LIMITS[0] else ()
    if len(rest):
        z, a = a[rest], None
        z = z @ z
        p = _series(z, _ARCSIN,
                    np.searchsorted(_RHO2_LIMITS, np.sqrt(_frobenius2(z)) * scale))
        a = (s - adjoint(s)) * 0.5
        x = a[rest] @ p
        np.subtract(x, adjoint(x), out=p)
        p *= 0.5
        a[rest] = p
    a += 0.0
    return a.reshape(u.shape)


def exp_skew(x) -> np.ndarray:
    """Exponential of a skew-Hermitian matrix, slice by slice for a stack and
    block by block for Blocks: the Taylor series of the module docstring,
    scaled and squared over EXP_CAP.  Rejects inputs that are not
    skew-Hermitian to 1e-10, and a slice whose ||x||_F overflows."""
    if isinstance(x, Blocks):
        return x.map(exp_skew)
    x = _require_square(x)
    xh, n = adjoint(x), x.shape[-1]
    _reject_worst(x + xh, 1e-10, "input is not skew-Hermitian: ||x + x*|| = %.3e")
    y = (x - xh).reshape(math.prod(x.shape[:-2]), n, n) * 0.5
    f2, i, top, _ = _screen(y)
    scale = _scale(n, n)
    if not math.isfinite(top):
        raise ValueError("input too large to exponentiate: ||x||_F overflows"
                         + _at_slice(i, x.shape[:-2]))
    rho, squarings = np.sqrt(f2) * scale, 0
    if math.sqrt(top) * scale > EXP_CAP:      # the largest rho: some slice squares
        squarings = np.where(rho > EXP_CAP, np.frexp(rho / EXP_CAP)[1], 0)
        y *= np.ldexp(1.0, -squarings)[:, None, None]
        rho = np.ldexp(rho, -squarings)
    e = _series(y, _EXP, np.searchsorted(_RHO_LIMITS, rho))
    for t in range(int(np.max(squarings))):
        i = np.flatnonzero(squarings > t)
        f = e[i] @ e[i]
        e[i] = f - 0.5 * (f @ (adjoint(f) @ f - np.eye(n)))
    e += 0.0
    return e.reshape(x.shape)


def spectral_round_unitary(w, d: int):
    """Round the spectrum of a unitary to the d-th roots of unity.

    Each eigenvalue is replaced by the nearest d-th root; eigenvectors are
    reused, so the output z satisfies z^d = 1 and commutes with w.  The map
    is phase-equivariant: rounding lam*w equals lam times rounding w for
    any d-th root of unity lam.  Returns (z, the eigenvectors of w, ks,
    margin): eigenvalue j is rounded to exp(2 pi i ks[j] / d), and margin,
    over 1e-6, is the least argument distance of an eigenvalue to a cell
    midpoint exp(i pi (2k+1) / d).  w must be unitary to 1e-10.

    Exact on the admitted set, margin > pi/(2d) (module docstring); a
    ValueError names the residual where the rotated eigenbasis fails the
    gate ||w V - V diag(lam)|| <= 1e-9, unscaled since ||w|| <= sqrt(1 +
    1e-10).
    """
    w = _require_square(w)
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    _reject_worst(adjoint(w) @ w - np.eye(w.shape[-1]), 1e-10,
                  "input is not unitary: ||w*w - 1|| = %.3e")
    h = np.exp(-0.5j * np.pi / d) * w
    v = _eigh((h + adjoint(h)) / 2)[1]
    wv = w @ v
    lam = np.einsum("ij,ij->j", v.conj(), wv)
    _reject_worst(wv - v * lam, 1e-9, "eigenvalues not "
                  "separated after the rotation: residual ||w V - V diag|| = %.3e")
    args = np.angle(lam)
    cell = 2 * np.pi / d
    margin = np.abs(np.mod(args, cell) - cell / 2)
    if np.any(margin <= 1e-6):
        i = int(np.argmin(margin))
        raise MidpointError(
            f"eigenvalue {lam[i]:.8g} is within {margin[i]:.3e} "
            f"of a rounding midpoint for d = {d}")
    ks = np.round(args / cell).astype(int) % d
    z = (v * np.exp(2j * np.pi * ks / d)) @ v.conj().T
    return z, v, ks, float(margin.min(initial=cell / 2))


def _range_isometry(b) -> np.ndarray:
    """An isometry onto the eigenvalues > 1/2 of a self-adjoint matrix (to
    1e-10), from one eigh; an eigenvalue in the band [0.4, 0.6] around 1/2,
    where the cut would be unstable, is rejected."""
    b = require_finite(b)
    _reject_worst(b - adjoint(b), 1e-10,
                  "input is not self-adjoint: ||b - b*|| = %.3e")
    vals, vecs = _eigh((b + b.conj().T) / 2)
    inside = (vals >= 0.4) & (vals <= 0.6)
    if inside.any():
        raise ValueError(
            f"eigenvalue {vals[inside][0]:.6g} lies in the forbidden band [0.4, 0.6]")
    return vecs[:, vals > 0.5]

