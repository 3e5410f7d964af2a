"""Exact correction of approximately permuted partitions of unity over a
cyclic group action (the Rokhlin-type families), including the
corner-compressed tracial variant.

The five partition defects of a family are ``projection`` (idempotency),
``self_adjoint``, ``orthogonality``, ``equivariance`` under the group's
permutation p_g -> p_{hg}, and ``unit_sum``, the distance of the sum from
the unit.  Both correctors measure their seeds as one maximum,
``partition_defect``, and their output by name, ``measure_partition_seeds``:
the two walk the same stacks.  Each correction averages over the group once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import FiniteGroup
from .matfun import (MidpointError, _polar_parts, _range_isometry, adjoint,
                     largest_norm, polar_unitary, readout_norm,
                     spectral_round_unitary)
from .galgebra import GAlgebra, group_mean, matrix_algebra, pair_chunks
from .repcorrect import DefectTooLargeError


def _partition_stacks(algebra: GAlgebra, seeds: np.ndarray, unit: np.ndarray):
    """(name, stack) for the five partition defects of a family p_g:
    ``unit_sum`` sum_g p_g - unit, ``projection`` p_g^2 - p_g,
    ``self_adjoint`` p_g - p_g*, and per chunk of g (``pair_chunks``, so no
    (d, d, n, n) array larger than a chunk is built) ``orthogonality``
    p_g p_h for g != h and ``equivariance`` alpha_g(p_h) - p_{gh}."""
    G, seeds = algebra.group, np.asarray(seeds, dtype=complex)
    yield "unit_sum", seeds.sum(axis=0) - unit
    yield "projection", seeds @ seeds - seeds
    yield "self_adjoint", seeds - seeds.conj().transpose(0, 2, 1)
    for c in pair_chunks(seeds, G.order):
        g = np.arange(G.order)[c]
        products = seeds[c, None] @ seeds
        products[np.arange(len(g)), g] = 0.0     # p_g p_g is not a pair
        yield "orthogonality", products
        yield "equivariance", algebra.act(g[:, None], seeds) - seeds[G.mult[c]]


def measure_partition_seeds(algebra: GAlgebra, seeds: np.ndarray,
                            unit: Optional[np.ndarray] = None) -> dict:
    """The five partition defects of a family by name (``_partition_stacks``,
    unit defaulting to 1), each maximized over the family as a readout."""
    defects = dict.fromkeys(("projection", "self_adjoint", "orthogonality",
                             "equivariance", "unit_sum"), 0.0)
    for name, x in _partition_stacks(algebra, seeds,
                                     np.eye(algebra.dim) if unit is None else unit):
        defects[name] = readout_norm(x, defects[name])
    return defects


def partition_defect(algebra: GAlgebra, seeds: np.ndarray) -> float:
    """The largest of the five partition defects (unit 1), as exact norms:
    one running floor through ``largest_norm`` over the stacks of
    ``measure_partition_seeds``, ``unit_sum`` first, so a stack that cannot
    beat the defects already measured takes no SVD (a maximum of exact
    norms does not depend on their order)."""
    worst = 0.0
    for _, x in _partition_stacks(algebra, seeds, np.eye(algebra.dim)):
        worst = largest_norm(x, worst)[0]
    return worst


def _averaged_seeds(algebra: GAlgebra, seeds: np.ndarray) -> np.ndarray:
    """The exactly permuted family b_g = avg_h alpha_h(p_{h^-1 g}) (one
    stacked action per chunk of h, on the (k, d, ...) stack of permuted
    families), made self-adjoint."""
    G = algebra.group
    sym = group_mean(lambda h: algebra.act(h[:, None], seeds[G.mult[G.inv[h]]]),
                     seeds, G.order)
    return (sym + sym.conj().transpose(0, 2, 1)) / 2


@functools.lru_cache(maxsize=32)
def partition_admissibility_threshold(d: int) -> float:
    """Conservative seed-defect bound under which the correction pipeline is
    guaranteed: propagate a uniform seed defect delta through symmetrization
    (displacement <= delta), the near-unitarity of the encoded element
    (||w0* w0 - 1|| <= d(d-1)(delta + 2 delta M) + d delta (2M + 2) +
    (d+1) delta with M = 1 + 2 delta), the polar step (movement
    max(1 - sqrt(1-eta), sqrt(1+eta) - 1)), and the spectral-rounding margin
    (eigenvalue argument within pi/(2d) of a d-th root, the half-gap
    condition).  Solved numerically by bisection, once per d (cached)."""

    def admissible(delta):
        M = 1 + 2 * delta
        eta = d * (d - 1) * (delta + 2 * delta * M) \
            + d * delta * (2 * M + 2) + (d + 1) * delta
        if eta >= 0.75:
            return False
        tau = max(1 - math.sqrt(1 - eta), math.sqrt(1 + eta) - 1)
        # Distance from the polar unitary to the exactly encoded element of a
        # nearby true partition: symmetrization displacement (<= delta per
        # block, d blocks) plus seed distance (<= delta per block) plus tau.
        return tau + 2 * d * delta < math.sin(math.pi / (2 * d))

    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if admissible(mid) else (lo, mid)
    return lo


@dataclass
class PartitionCorrection:
    projections: np.ndarray
    displacement: float
    seed_defect: float
    certificate: dict
    residuals: dict


def _require_standard_cyclic(group: FiniteGroup):
    if not group.is_cyclic_standard():
        raise ValueError("partition correction requires a cyclic group in "
                         "standard form (element i = generator**i)")


def _round_partition(algebra: GAlgebra, sym: np.ndarray, seed_defect: float):
    """Both correctors' rounding: the exact partition the exactly permuted
    family b of ``_averaged_seeds`` rounds to, and its certificate, opening
    with the seeds' defect.  w0 = sum_g zeta^g b_g is exactly covariant; one
    SVD gives its polar part and ||w0* w0 - 1|| = max |s^2 - 1|, which under
    0.75 puts every s over 1/2, so no singular gate is needed."""
    d = algebra.group.order
    threshold = partition_admissibility_threshold(d)
    certificate = {"seed_defect": seed_defect, "a_priori_threshold": threshold}

    zeta = np.exp(2j * np.pi / d)
    phase = np.array([zeta ** g for g in range(d)])[:, None, None]
    w0 = sum(phase * sym)
    w, s = _polar_parts(w0)
    eta = float(np.max(np.abs(s * s - 1)))
    certificate["encoded_unitarity_gap"] = eta
    if eta >= 0.75:
        raise DefectTooLargeError(
            f"seeds too rough: ||w0* w0 - 1|| = {eta:.6g} >= 0.75 "
            f"(seed defect {seed_defect:.6g}, a-priori threshold {threshold:.6g})")
    certificate["covariance_residual"] = readout_norm(
        algebra.act(np.arange(d), w) - phase.conj() * w, 0.0)

    # The half-gap condition: every eigenvalue argument within pi/(2d) of a
    # d-th root; one at m from its cell's midpoint is pi/d - m from its root.
    # The rounding's residual gate refuses only spectra outside that set or
    # within about 1e-7 of its edge: a defect too large as well.
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

    projections = np.stack([v[:, ks == g] @ v[:, ks == g].conj().T for g in range(d)])
    return projections, certificate


def stabilize_partition(algebra: GAlgebra, seeds: np.ndarray) -> PartitionCorrection:
    """Correct an approximately permuted approximate partition of unity over
    a cyclic group action into an exact one.

    Pipeline: group-average the seeds into an exactly permuted family, encode
    it as w0 = sum_g zeta^g b_g (zeta = exp(2 pi i / d)), exactly covariant,
    take the polar unitary, round its spectrum onto the d-th roots of unity,
    and read off the eigenprojections.  The output family consists of exact
    mutually orthogonal projections summing to one and exactly permuted by
    the action; each stage validates its own measured precondition.
    """
    _require_standard_cyclic(algebra.group)
    d, n = algebra.group.order, algebra.dim
    seeds = np.asarray(seeds, dtype=complex)
    if seeds.shape != (d, n, n):
        raise ValueError(f"seeds shape {seeds.shape}, expected {(d, n, n)}")
    seed_defect = partition_defect(algebra, seeds)
    projections, certificate = _round_partition(
        algebra, _averaged_seeds(algebra, seeds), seed_defect)
    return PartitionCorrection(
        projections=projections, displacement=largest_norm(projections - seeds)[0],
        seed_defect=seed_defect, certificate=certificate,
        residuals=measure_partition_seeds(algebra, projections))


@dataclass
class TracialPartitionCorrection(PartitionCorrection):
    corner_projection: np.ndarray
    witness_compression_norm: float
    complement_rank: int


def stabilize_tracial_partition(algebra: GAlgebra, seeds: np.ndarray,
                                witness: np.ndarray) -> TracialPartitionCorrection:
    """Tracial variant: the seeds sum to an approximately invariant
    sub-identity projection q rather than to 1.  Rounds the invariant sum to
    an exact invariant projection, compresses everything to the corner
    q M q, runs the partition correction there, and reports the witness
    compression norm ||e x e|| and the rank of 1 - e for the caller."""
    G = algebra.group
    _require_standard_cyclic(G)
    d, n = G.order, algebra.dim
    seeds = np.asarray(seeds, dtype=complex)
    witness = np.asarray(witness, dtype=complex)
    if largest_norm(witness - witness.conj().T, 1e-10)[0] > 1e-10 or \
            abs(largest_norm(witness)[0] - 1) > 1e-10:
        raise ValueError("witness must be positive with norm 1")
    seed_defect = partition_defect(algebra, seeds)   # unit_sum is vs 1 here

    sym = _averaged_seeds(algebra, seeds)
    s = sym.sum(axis=0)
    inv_gap = largest_norm(algebra.act(np.arange(d), s) - s, 1e-10)[0]
    if inv_gap > 1e-10:
        raise DefectTooLargeError(
            f"summed seeds not invariant after averaging (gap {inv_gap:.3e})")
    iso = _range_isometry(s)                 # n x r isometry onto the corner
    q = iso @ adjoint(iso)                   # the corner's projection
    r = iso.shape[1]
    # Dense seeds: a one-block algebra, whose unitaries compress to the corner.
    u = np.stack([algebra.unitaries[g][0] for g in range(d)])
    corner = matrix_algebra(r, G, polar_unitary(adjoint(iso) @ u @ iso),
                            action_tol=1e-10)

    # q is invariant to the gate above, so the corner's action permutes the
    # compressed family to that order: the rounding takes it as it is.
    inner, certificate = _round_partition(corner, adjoint(iso) @ sym @ iso,
                                          seed_defect)
    projections = iso @ inner @ iso.conj().T

    certificate["corner_rank"] = r
    return TracialPartitionCorrection(
        projections=projections, displacement=largest_norm(projections - seeds)[0],
        seed_defect=seed_defect, certificate=certificate,
        residuals=measure_partition_seeds(algebra, projections, q),
        corner_projection=q, witness_compression_norm=largest_norm(q @ witness @ q)[0],
        complement_rank=n - r)
