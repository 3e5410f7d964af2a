"""Small references for the property tests: the plain-SVD operator norm
that ``largest_norm`` screens and that kernel's per-part form, the dense
route for the block-stored G-algebras, the ``eigh`` routes for the
half-plane log and the exponential of skew-Hermitian matrices, the series
log before its degree classes, the Schur route for the eigensystem of a
unitary and its spectral rounding, the per-element loops the stacked
scenario builders replaced, the towers of copies of M_n built by hand
before one builder made them all, the block action that gathers every
size (``gather_act``) and the nontrivial action draw decided by exact
norms alone; and the sandwich a certification readout keeps about the
exact norm it replaces (``assert_readout``).

Every element is one block-diagonal n x n matrix, the automorphism of g is
conjugation by the full block-permutation unitary W_g, and the quotient at
a tower level zeroes the blocks of its ideal.  This is the route the block
storage replaced; the property tests compare the two.  The lift, tower-rep
and tower-cocycle references are that route's trial runners, whose
correctors step every block: no quotient is pinned.

The partition references are the correctors' route before each took one
group average: the rounding averages its seeds again, takes the
covariance average of the encoded element and measures its unitarity gap
with a norm SVD apart from the polar one, and the tracial corrector
measures its corner seeds' defect as well.
"""

import itertools
import math

import numpy as np
import scipy.linalg
from scipy.linalg import expm

from equifix.cocycles import coboundary, trivialize
from equifix.galgebra import GAlgebra, Tower, group_mean, matrix_algebra
from equifix.matfun import (_ARCSIN, _RHO2_LIMITS, _UNDERFLOW, HALF_PLANE_RADIUS,
                            READOUT_FLOOR, Blocks, MidpointError, _polar_parts,
                            _range_isometry, _reject_worst, _require_square,
                            _scale, _schatten8, _screen, _series, _stack_bound,
                            _svd_norms, adjoint, exp_skew, largest_norm,
                            polar_unitary, spectral_round_unitary)
from equifix.relations import (PartitionCorrection, TracialPartitionCorrection,
                               _averaged_seeds, measure_partition_seeds,
                               partition_admissibility_threshold,
                               partition_defect)
from equifix.repcorrect import (LEVEL_ACCEPT_THRESHOLD, UNITARIZE_EPS, ApproxRep,
                                DefectTooLargeError, correct_to_rep,
                                equivariance_defect, intertwiner, symmetrize)
from equifix.scenarios import (ScenarioError, exact_rep_values, make_group,
                               nontrivial_action_rep, random_skew,
                               random_unitary, trial_rng)


def operator_norm(a):
    """Largest singular value by plain SVD, the route ``largest_norm``
    screens: a stack (..., m, n) gives one norm per slice, and Blocks the
    largest block norm per element."""
    if isinstance(a, Blocks):
        norms = np.concatenate([operator_norm(p) for p in a.parts], axis=-1)
        return norms.max(axis=-1) if a.lead else float(norms.max())
    a = np.asarray(a, dtype=complex)
    norms = np.linalg.svd(a, compute_uv=False)[..., 0] if a.size else \
        np.zeros(a.shape[:-2])
    return norms if a.ndim > 2 else float(norms)


def assert_readout(readout: float, exact: float):
    """A certification readout (``readout_norm``) of a figure whose exact
    norm is ``exact``: that norm bit for bit above READOUT_FLOOR, and at or
    under it an upper bound on it, so within READOUT_FLOOR of it."""
    assert exact <= readout
    assert readout == exact or readout <= READOUT_FLOOR, (readout, exact)


def per_part_largest_norm(a, floor: float = 0.0):
    """``largest_norm`` as it was before its one-part route: every call
    builds a list of parts (one, for a dense stack) and screens them all,
    SVDs first the slice of largest lower bound F / sqrt(rank) over every
    part, then cuts each part in turn."""
    blocks = isinstance(a, Blocks)
    parts = [np.asarray(p, dtype=complex) for p in (a.parts if blocks else (a,))]
    if 0 < floor < math.inf and all(_stack_bound(p) + _UNDERFLOW <= floor
                                     for p in parts):
        return floor, None
    screens = []
    for p in parts:
        m, n = p.shape[-2:]
        x = np.ascontiguousarray(p).reshape(math.prod(p.shape[:-2]), m, n).view(np.float64)
        f2 = np.einsum("kij,kij->k", x, x)
        top = float(f2.max()) if f2.size else 0.0
        if not math.isfinite(top) and not np.isfinite(x).all():
            raise ValueError("matrix has non-finite entries")
        screens.append((f2, top, x, _scale(m, n)))
    if floor >= 0 and all(math.sqrt(top) * scale + _UNDERFLOW <= floor
                          for _, top, _, scale in screens):
        return floor, None
    per = [p.shape[-3] if blocks else 1 for p in parts]
    lo, strict = max(floor, 0.0), True
    best, first, done = -math.inf, None, (-1, -1)
    lows = [math.sqrt(top) * (2 - scale) / math.sqrt(max(1, min(p.shape[-2:])))
            for p, (_, top, _, scale) in zip(parts, screens)]
    s = max(range(len(lows)), key=lows.__getitem__, default=0)
    f2, top, x, scale = screens[s] if screens else (None, 0.0, None, 1.0)
    if 0 < top and math.sqrt(top) * scale + _UNDERFLOW > lo:
        done = s, int(f2.argmax())
        best = float(_svd_norms(x.view(complex)[done[1]]))
        first = done[1] // per[s]
        lo, strict = (best, False) if best > lo else (lo, strict)
    for s, (f2, top, x, scale) in enumerate(screens):
        cut = (lo - _UNDERFLOW) / scale
        bounded = cut >= 0 and math.isfinite(top)
        if bounded:
            keep = f2 > cut * cut if strict else f2 >= cut * cut
        else:
            keep = x.any(axis=(1, 2))
        if s == done[0]:
            keep[done[1]] = False
        index = keep.nonzero()[0]
        if bounded and index.size:
            s8 = _schatten8(x.view(complex)[index], f2[index])
            index = index[s8 > cut if strict else s8 >= cut]
        if index.size:
            norms = _svd_norms(x.view(complex)[index])
            i = int(norms.argmax())
            at = int(index[i]) // per[s]
            if norms[i] > best or (norms[i] == best and at < first):
                best, first = float(norms[i]), at
    if first is None and floor < 0 and any(s[0].size for s in screens):
        return 0.0, 0
    return (best, first) if best > floor else (floor, None)


def schur_eigensystem(a):
    """Unitary diagonalization a = V diag(eigenvalues) V* of a normal matrix
    through its complex Schur form a = Z T Z*, as (eigenvalues, V = Z),
    however the eigenvalues cluster; asserts that T is diagonal to 1e-9
    max(1, ||a||).  The route the rotated ``eigh`` of spectral rounding
    replaced."""
    t, z = scipy.linalg.schur(a, output="complex")
    lam = np.diag(t).copy()
    assert operator_norm(t - np.diag(lam)) <= 1e-9 * max(1.0, operator_norm(a))
    return lam, z


def schur_round_unitary(w, d):
    """Spectral rounding of a unitary onto the d-th roots through its Schur
    eigensystem: (z, ks, margin) as ``spectral_round_unitary`` returns them,
    and the eigenprojection onto each root, a (d, n, n) stack."""
    lam, v = schur_eigensystem(w)
    cell = 2 * np.pi / d
    args = np.angle(lam)
    ks = np.round(args / cell).astype(int) % d
    z = (v * np.exp(2j * np.pi * ks / d)) @ v.conj().T
    margin = float(np.abs(np.mod(args, cell) - cell / 2).min())
    return z, ks, margin, root_projections(v, ks, d)


def root_projections(v, ks, d):
    """The projection onto the columns of v rounded to each d-th root."""
    return np.stack([v[:, ks == k] @ v[:, ks == k].conj().T for k in range(d)])


def eigh_half_plane_log(u):
    """Principal log of a stack (..., n, n) of unitaries within 1/2 of 1
    through one batched ``eigh``: there every eigenvalue argument is below
    2 arcsin(1/4) < pi/2, so log u = i arcsin((u - u*) / 2i) is a function of
    a Hermitian matrix.  The route the arcsin series replaced."""
    sines, v = np.linalg.eigh(-0.5j * (u - u.conj().swapaxes(-1, -2)))
    args = np.arcsin(np.clip(sines, -1.0, 1.0))
    x = (v * (1j * args)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (x - x.conj().swapaxes(-1, -2)) / 2


def whole_stack_log(u) -> np.ndarray:
    """``principal_log_unitary`` as it was before its degree classes: one
    evaluation takes every slice to the stack's largest degree, and only a
    stack whose whole ||a||_F^2 is under the degree-0 limit skips a^2."""
    if isinstance(u, Blocks):
        return u.map(whole_stack_log)
    u = _require_square(u)
    n, one = u.shape[-1], np.eye(u.shape[-1])
    _reject_worst(adjoint(u) @ u - one, 1e-10,
                  "input is not unitary: ||u*u - 1|| = %.3e")
    _reject_worst(u - one, HALF_PLANE_RADIUS,
                  "unitary outside the log's disc: ||u - 1|| = %.3e > 1/2")
    s = u.reshape(math.prod(u.shape[:-2]), n, n)
    a = (s - adjoint(s)) * 0.5
    # ||a^2||_F <= ||a||_F^2: when that puts every slice at degree 0, the
    # series is 1 and log u = a.
    bound = _stack_bound(a)
    if bound * bound <= _RHO2_LIMITS[0]:
        a += 0.0
        return a.reshape(u.shape)
    z = a @ a
    del a
    p = _series(z, _ARCSIN, np.searchsorted(_RHO2_LIMITS,
                                            np.sqrt(_screen(z)[0]) * _scale(n, n)))
    x = ((s - adjoint(s)) * 0.5) @ p
    np.subtract(x, adjoint(x), out=p)
    p *= 0.5
    p += 0.0
    return p.reshape(u.shape)


def eigh_exp_skew(x):
    """Exponential of a stack (..., n, n) of skew-Hermitian matrices through
    one batched ``eigh`` of the Hermitian -i x: unitary by construction.
    The route the Taylor series replaced."""
    x = (x - x.conj().swapaxes(-1, -2)) / 2
    theta, v = np.linalg.eigh(-1j * x)
    return (v * np.exp(1j * theta)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def offsets(blocks):
    return np.concatenate([[0], np.cumsum(blocks)]).astype(int)


def layout(blocks):
    """(size, block positions) per stack, in the order Blocks stores them:
    sizes ascending, blocks of one size in position order."""
    return [(b, [j for j, c in enumerate(blocks) if c == b])
            for b in sorted(set(blocks))]


def embed(blocks, x, live=None):
    """The dense block-diagonal matrices of x, an element (or stack) of the
    algebra on the blocks ``live`` (default: all) of an algebra with the
    given block sizes; the other blocks are zero."""
    live = list(range(len(blocks))) if live is None else live
    offs = offsets(blocks)
    out = np.zeros(x.lead + (offs[-1], offs[-1]), dtype=complex)
    for (_, positions), p in zip(layout([blocks[j] for j in live]), x.parts):
        for k, i in enumerate(positions):
            j = live[i]
            out[..., offs[j]:offs[j + 1], offs[j]:offs[j + 1]] = p[..., k, :, :]
    return out


def random_blocks(blocks, rng, lead=()):
    return Blocks(rng.standard_normal(lead + (len(pos), b, b)) +
                  1j * rng.standard_normal(lead + (len(pos), b, b))
                  for b, pos in layout(blocks))


def trivial_algebra(blocks, group):
    """The G-algebra on ``blocks`` on which every g acts as the identity."""
    return GAlgebra(blocks, group, np.tile(np.arange(len(blocks)), (group.order, 1)),
                    tuple(tuple(np.eye(b) for b in blocks) for _ in range(group.order)))


def full_unitary(algebra, g):
    """W_g: block (perms[g][j], j) holds the unitary at the target."""
    offs = offsets(algebra.blocks)
    w = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    for j, p in enumerate(algebra.perms[g]):
        w[offs[p]:offs[p + 1], offs[j]:offs[j + 1]] = algebra.unitaries[g][p]
    return w


def dense_act(algebra):
    """a -> W_g a W_g*, for an int g or an index array g broadcast against
    the leading axes of a, like ``GAlgebra.act``."""
    ws = np.stack([full_unitary(algebra, g) for g in range(algebra.group.order)])

    def act(g, a):
        return ws[g] @ a @ adjoint(ws[g])
    return act


def gather_act(algebra):
    """``GAlgebra.act`` before a size whose blocks no g moves skipped the
    gather: every dense size gathers its blocks by the permutation and
    conjugates them, and every monomial size gathers its entries, times
    their weights, for an int g or an index array g broadcast against the
    leading axes of a."""
    def act(g, a):
        x = algebra.as_blocks(a)
        ix = np.indices(x.lead + (1,), sparse=True)[:-1]
        parts = []
        for p, s, u, uh, idx, w in zip(x.parts, algebra._src, algebra._u,
                                       algebra._uh, algebra._idx, algebra._w):
            if idx is None:
                parts.append(u[g] @ p[(*ix, s[g])] @ uh[g])
            else:
                flat = p.reshape(x.lead + (p.shape[-3] * p.shape[-2] * p.shape[-1],))
                moved = flat[(*(i[..., None, None] for i in ix), idx[g])]
                parts.append(moved if w is None else moved * w[g])
        out = Blocks(parts)
        return out if isinstance(a, Blocks) else out.parts[0][..., 0, :, :]
    return act


def unitarize_values(values):
    """Replace each value by its polar part.  Every value must be within
    UNITARIZE_EPS = eps0/2 (eps0 = 1/(12*17)) of a unitary, measured as
    max |s - 1| over its singular values s; the polar parts then move each
    value by less than eps0.  One batched SVD per block size
    (``_polar_parts``, which the lift's level scan shares) gives both the
    distances and the polar parts; a rejection names the first value that
    is too far.  The per-value unitarization the lift's level scan
    replaced."""
    if isinstance(values, Blocks):
        pairs = [_polar_parts(p) for p in values.parts]
        out = Blocks(q for q, _ in pairs)
        dists = np.max([np.abs(s - 1.0).max(axis=(-2, -1)) for _, s in pairs], axis=0)
    else:
        out, s = _polar_parts(values)
        dists = np.abs(s - 1.0).max(axis=-1, initial=0.0)
    far = np.flatnonzero(dists >= UNITARIZE_EPS)
    if far.size:
        i = int(far[0])
        raise DefectTooLargeError(
            f"value {i} is at distance {dists[i]:.6g} from the unitaries; "
            f"unitarization requires < {UNITARIZE_EPS:.6g}")
    return out


def level_mask(tower, n):
    offs = offsets(tower.algebra.blocks)
    mask = np.zeros((tower.algebra.dim,) * 2)
    for j in range(len(tower.algebra.blocks)):
        if j not in tower.ideals[n]:
            mask[offs[j]:offs[j + 1], offs[j]:offs[j + 1]] = 1.0
    return mask


def lift_trace(tower, source_action, seed, tol=1e-12):
    """The dense lift: every level on the full algebra, zero-padded, with
    the live corner cut out by index arrays.  Returns (level, correction
    trace, equivariance residual, projection residual)."""
    A = tower.algebra
    H = source_action.source
    act = dense_act(A)
    top_mask = level_mask(tower, tower.top)
    seed_vals = embed(A.blocks, seed.values)
    phi_vals = seed_vals * top_mask
    for level in range(tower.top):
        mask = level_mask(tower, level)
        level_vals = seed_vals * mask
        live = np.flatnonzero(np.diag(mask))
        try:
            rho0 = unitarize_values(symmetrize(level_vals, act, source_action)
                                    [:, live[:, None], live])
        except DefectTooLargeError:
            continue
        if ApproxRep(H, rho0, unitary=False,
                     unital=False).defect() < LEVEL_ACCEPT_THRESHOLD:
            break
    embedding = np.zeros((A.dim, live.size))
    embedding[live, np.arange(live.size)] = 1.0

    correction = correct_to_rep(ApproxRep(H, rho0), tol=tol)
    seed_sub = level_vals[:, live[:, None], live]
    u = intertwiner(ApproxRep(H, seed_sub), correction.last)
    final = embedding @ (u @ seed_sub @ u.conj().T) @ embedding.T
    return (level, correction.trace, equivariance_defect(final, act, source_action),
            float(np.max(operator_norm(final * top_mask - phi_vals))))


def two_block_tower(group, unitaries):
    """Two copies of M_dim, each acted on by Ad(unitaries[g]); the quotient
    kills the first block: the pinned correctors' tower as it was built by
    hand."""
    perms = np.tile(np.arange(2, dtype=np.intp), (group.order, 1))
    algebra = GAlgebra(blocks=(len(unitaries[0]),) * 2, group=group, perms=perms,
                       unitaries=tuple((u, u) for u in unitaries))
    return Tower(algebra=algebra, ideals=(frozenset(), frozenset({0})))


def stage_unitaries(model, n):
    """The unitaries of the lift's stage action on M_n, per element of G:
    the powers of diag(zeta^-y) for the translation model, and the identity
    and the flip e_y -> e_(-y) for the inversion model."""
    if model == "translation":
        dstage = np.diag(np.exp(2j * np.pi / n) ** (-np.arange(n)))
        return [np.linalg.matrix_power(dstage, a) for a in range(n)]
    flip = np.eye(n, dtype=complex)[:, (-np.arange(n)) % n]
    return [np.eye(n, dtype=complex), flip]


def stage_tower(group, unitaries, levels):
    """The lift's tower, ``levels`` stages of M_n, level j killing the first
    j, as it was built by hand."""
    n = len(unitaries[0])
    perms = np.tile(np.arange(levels, dtype=np.intp), (group.order, 1))
    unitaries = tuple((unitaries[g],) * levels for g in range(group.order))
    algebra = GAlgebra(blocks=(n,) * levels, group=group, perms=perms, unitaries=unitaries)
    ideals = tuple(frozenset(range(j)) for j in range(levels))
    return Tower(algebra=algebra, ideals=ideals)


def masked_skew(rng, n, dim):
    """A random_skew of size n masked to its leading dim x dim corner and
    normalized again."""
    k = random_skew(rng, n)
    k[dim:] = 0.0
    k[:, dim:] = 0.0
    return k / operator_norm(k)


def rep_tower_trace(s, trial):
    """The tower rep trial on dense 2dim x 2dim matrices."""
    rng = trial_rng(s.seed, trial)
    group = make_group(s.group["kind"], s.group.get("params"))
    dim = s.dimension
    base = exact_rep_values(s.group, group, dim, rng)
    vals = np.stack([np.kron(np.eye(2), b) for b in base])
    for g in range(1, group.order):
        vals[g] = vals[g] @ expm(s.magnitude * masked_skew(rng, 2 * dim, dim))
    return correct_to_rep(ApproxRep(group, vals), tol=s.tolerance).trace


def cocycle_tower_trace(s, trial):
    """The tower cocycle trial on one dense M_2dim with a hand-made mask."""
    rng = trial_rng(s.seed, trial)
    group = make_group(s.group["kind"], s.group.get("params"))
    dim = s.dimension
    action = nontrivial_action_rep(s.group, group, dim, rng)
    algebra = matrix_algebra(2 * dim, group, [np.kron(np.eye(2), a) for a in action])
    v1, v2 = random_unitary(rng, dim), random_unitary(rng, dim)
    v = np.kron(np.diag([1.0, 0.0]), v1) + np.kron(np.diag([0.0, 1.0]), v2)
    w = coboundary(algebra, v)
    v0 = v @ expm(s.magnitude * masked_skew(rng, 2 * dim, dim))
    return trivialize(w, v0, tol=s.tolerance).trace


def loop_menu(kind, params):
    """(dim, fn) homomorphism pieces of a group kind, fn mapping an element
    index to its matrix: the per-element menu the cached stacks replaced."""
    if kind == "cyclic":
        d = int(params)
        return [(1, lambda g, a=a: np.array([[np.exp(2j * np.pi * a * g / d)]]))
                for a in range(d)]
    if kind == "dihedral":
        n = int(params)
        menu = [(1, lambda g: np.eye(1, dtype=complex)),
                (1, lambda g: np.array([[(-1.0 + 0j) ** (g // n)]]))]
        for k in range(1, n):
            def two_dim(g, k=k):
                t = 2 * np.pi * k * (g % n) / n
                m = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]],
                             dtype=complex)
                return m @ np.diag([1, -1]).astype(complex) if g // n else m
            menu.append((2, two_dim))
        return menu
    if kind == "symmetric":
        m = int(params)
        elems = sorted(itertools.permutations(range(m)))
        parity = [sum(a > b for a, b in itertools.combinations(p, 2)) & 1
                  for p in elems]
        return [(1, lambda g: np.eye(1, dtype=complex)),
                (1, lambda g: np.array([[(-1.0 + 0j) ** parity[g]]])),
                (m, lambda g: np.eye(m, dtype=complex)[:, list(elems[g])])]
    if kind == "product":
        spec_a, spec_b = params
        nb = make_group(spec_b[0], spec_b[1]).order
        return [(da * db, lambda g, fa=fa, fb=fb: np.kron(fa(g // nb), fb(g % nb)))
                for da, fa in loop_menu(spec_a[0], spec_a[1])
                for db, fb in loop_menu(spec_b[0], spec_b[1])]
    raise ValueError(kind)


def loop_exact_rep_values(group_spec, group, dim, rng):
    """exact_rep_values with one menu call per element and one conjugation
    per element."""
    menu = loop_menu(group_spec["kind"], group_spec.get("params"))
    chosen = []
    remaining = dim
    while remaining > 0:
        options = [item for item in menu if item[0] <= remaining]
        chosen.append(options[int(rng.integers(0, len(options)))])
        remaining -= chosen[-1][0]
    v = random_unitary(rng, dim)
    full = np.zeros((group.order, dim, dim), dtype=complex)
    at = 0
    for k, fn in chosen:
        full[:, at:at + k, at:at + k] = [fn(g) for g in range(group.order)]
        at += k
    return np.stack([v @ f @ v.conj().T for f in full])


def reference_action_rep(group_spec, group, dim, rng):
    """``nontrivial_action_rep`` with every draw decided by the exact norm
    ``largest_norm(x, 0.3)``, as before its Frobenius exit."""
    for _ in range(16):
        vals = exact_rep_values(group_spec, group, dim, rng)
        others = np.delete(vals, group.identity, axis=0)
        means = np.trace(others, axis1=1, axis2=2) / dim
        x = others - means[:, None, None] * np.eye(dim)
        if largest_norm(x, 0.3)[0] > 0.3:
            return vals
    raise ScenarioError(
        f"could not draw a nontrivial action for {group.name} at dim {dim}")


def loop_random_skew(rng, n, corner=None):
    """One random_skew draw: two n x n normal draws, an SVD norm each time
    it normalizes."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (a - a.conj().T) / 2
    norm = operator_norm(k)
    if norm > 0:
        k = k / norm
    if corner is not None:
        k = k[:corner, :corner]
        norm = operator_norm(k)
        if norm > 0:
            k = k / norm
    return k


def loop_perturb_rep_values(values, magnitude, rng, draw=None):
    """perturb_rep_values with one random_skew draw per moved value, every
    value but the identity's, index 0."""
    out = np.array(values, dtype=complex)
    n = out.shape[1]
    moved = [g for g in range(len(out)) if g != 0]
    k = np.array([loop_random_skew(rng, n) if draw is None else
                  loop_random_skew(rng, draw, n) for _ in moved]).reshape(-1, n, n)
    out[moved] = out[moved] @ exp_skew(magnitude * k)
    return out


def loop_rokhlin(d, block, magnitude, rng, corank=0):
    """(unitaries, exact partition, seeds) of build_rokhlin_scenario, built
    element by element with one random_skew draw per seed."""
    n = d * block + corank
    shift = np.kron(np.roll(np.eye(d), 1, axis=0), np.eye(block))
    unitaries = np.zeros((d, n, n), dtype=complex)
    exact = np.zeros((d, n, n), dtype=complex)
    for g in range(d):
        unitaries[g, :d * block, :d * block] = np.linalg.matrix_power(shift, g)
        unitaries[g, d * block:, d * block:] = np.eye(corank)
        exact[g, g * block:(g + 1) * block, g * block:(g + 1) * block] = np.eye(block)
    q = exp_skew(magnitude * np.stack([loop_random_skew(rng, n) for _ in range(d)]))
    return unitaries, exact, q @ exact @ adjoint(q)


def loop_lift_seed_values(n, levels, base, ratio, rng):
    """The lift seed's values: stage j of the shift representation of Z/n
    conjugated by exp(base ratio^j K_j), one random_skew K_j per stage below
    the top."""
    angles = np.zeros((levels, n, n), dtype=complex)
    for j in range(levels - 1):
        angles[j] = base * ratio ** j * loop_random_skew(rng, n)
    q = exp_skew(angles)
    shift = np.roll(np.eye(n), 1, axis=0).astype(complex)
    stage_rep = np.stack([np.linalg.matrix_power(shift, k) for k in range(n)])
    return q @ stage_rep[:, None] @ adjoint(q)


def reference_round_partition(algebra, seeds):
    """The rounding core on raw seeds: their defect, the group average, the
    covariance average a of the encoded w0, ||a* a - 1|| from a norm SVD,
    and the gated polar part of a (``polar_unitary`` of this module, which
    a test may replace)."""
    d, n = algebra.group.order, algebra.dim
    seed_defect = partition_defect(algebra, seeds)
    threshold = partition_admissibility_threshold(d)
    certificate = {"seed_defect": seed_defect, "a_priori_threshold": threshold}
    sym = _averaged_seeds(algebra, seeds)
    zeta = np.exp(2j * np.pi / d)
    phase = np.array([zeta ** g for g in range(d)])[:, None, None]
    w0 = sum(phase * sym)
    a = group_mean(lambda g: phase[g] * algebra.act(g, w0), w0, d)
    eta = operator_norm(a.conj().T @ a - np.eye(n))
    certificate["encoded_unitarity_gap"] = eta
    if eta >= 0.75:
        raise DefectTooLargeError(
            f"seeds too rough: ||w0* w0 - 1|| = {eta:.6g} >= 0.75 "
            f"(seed defect {seed_defect:.6g}, a-priori threshold {threshold:.6g})")
    w = polar_unitary(a)
    certificate["covariance_residual"] = largest_norm(
        algebra.act(np.arange(d), w) -
        np.stack([(zeta ** (-g)) * w for g in range(d)]))[0]
    half_gap = np.pi / (2 * d)
    try:
        _, v, ks, margin = spectral_round_unitary(w, d)
    except MidpointError:
        raise
    except ValueError as exc:
        raise DefectTooLargeError(
            f"spectrum of the encoded unitary strays beyond the admissible "
            f"margin {half_gap:.6g} from the d-th roots: {exc}") from None
    certificate["midpoint_margin"] = margin
    certificate["required_arg_margin"] = half_gap
    if margin <= half_gap:
        raise DefectTooLargeError(
            f"spectrum of the encoded unitary strays {np.pi / d - margin:.6g} rad "
            f"from the d-th roots, beyond the admissible margin {half_gap:.6g}")
    return root_projections(v, ks, d), certificate


def reference_stabilize_partition(algebra, seeds):
    """stabilize_partition through ``reference_round_partition``."""
    projections, certificate = reference_round_partition(algebra, seeds)
    return PartitionCorrection(
        projections=projections, displacement=largest_norm(projections - seeds)[0],
        seed_defect=certificate["seed_defect"], certificate=certificate,
        residuals=measure_partition_seeds(algebra, projections))


def reference_stabilize_tracial_partition(algebra, seeds, witness):
    """stabilize_tracial_partition through ``reference_round_partition``
    on the corner's compression of the averaged seeds, which it averages
    again under the corner's action and whose defect opens its
    certificate."""
    G = algebra.group
    d, n = G.order, algebra.dim
    seed_defect = partition_defect(algebra, seeds)
    sym = _averaged_seeds(algebra, seeds)
    s = sym.sum(axis=0)
    inv_gap = largest_norm(algebra.act(np.arange(d), s) - s, 1e-10)[0]
    if inv_gap > 1e-10:
        raise DefectTooLargeError(
            f"summed seeds not invariant after averaging (gap {inv_gap:.3e})")
    iso = _range_isometry(s)
    q = iso @ adjoint(iso)
    r = iso.shape[1]
    u = np.stack([algebra.unitaries[g][0] for g in range(d)])
    corner = matrix_algebra(r, G, polar_unitary(adjoint(iso) @ u @ iso))
    inner, certificate = reference_round_partition(corner, adjoint(iso) @ sym @ iso)
    projections = iso @ inner @ iso.conj().T
    certificate["corner_rank"] = r
    return TracialPartitionCorrection(
        projections=projections, displacement=largest_norm(projections - seeds)[0],
        seed_defect=seed_defect, certificate=certificate,
        residuals=measure_partition_seeds(algebra, projections, q),
        corner_projection=q, witness_compression_norm=operator_norm(q @ witness @ q),
        complement_rank=n - r)
