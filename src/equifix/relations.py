"""Exact correction of approximately permuted partitions of unity over a
cyclic group action (the Rokhlin-type families), including the
corner-compressed tracial variant.

Both correctors measure the five partition defects of their seeds and
their output with one kernel, ``measure_partition_seeds``: idempotency,
self-adjointness, mutual orthogonality, equivariance under the group's
permutation p_g -> p_{hg}, and the distance of the sum from the unit.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from .groups import FiniteGroup, haar_average
from .matfun import (operator_norm, polar_unitary, round_to_projection,
                     spectral_round_unitary)
from .galgebra import GAlgebra, matrix_algebra
from .repcorrect import DefectTooLargeError


@dataclass
class SeedDefects:
    idempotency: float
    self_adjointness: float
    orthogonality: float
    equivariance: float
    unit_sum: float

    @property
    def overall(self) -> float:
        return max(self.idempotency, self.self_adjointness, self.orthogonality,
                   self.equivariance, self.unit_sum)


def measure_partition_seeds(algebra: GAlgebra, seeds: np.ndarray,
                            unit: Optional[np.ndarray] = None) -> SeedDefects:
    """The five partition defects of a family p_g: ||p_g^2 - p_g||,
    ||p_g - p_g*||, ||p_g p_h|| for g != h, ||alpha_g(p_h) - p_{gh}|| and
    ||sum_g p_g - unit|| (unit defaults to 1), each maximized over the
    family.  The norms are batched over the family, with one slab per g
    for the two pairwise defects (so no (d, d, n, n) array is built) and
    one action per g on the whole family."""
    G = algebra.group
    seeds = np.asarray(seeds, dtype=complex)
    if unit is None:
        unit = np.eye(algebra.dim)
    orth = eq = 0.0
    for g in range(G.order):
        others = np.delete(seeds, g, axis=0)
        orth = max(orth, float(np.max(operator_norm(seeds[g] @ others),
                                      initial=0.0)))
        eq = max(eq, float(np.max(operator_norm(
            algebra.act(g, seeds) - seeds[G.mult[g]]))))
    return SeedDefects(
        idempotency=float(np.max(operator_norm(seeds @ seeds - seeds))),
        self_adjointness=float(np.max(operator_norm(
            seeds - seeds.conj().transpose(0, 2, 1)))),
        orthogonality=orth, equivariance=eq,
        unit_sum=operator_norm(seeds.sum(axis=0) - unit))


def _residuals(algebra: GAlgebra, family: np.ndarray,
               unit: Optional[np.ndarray] = None) -> dict:
    """The five defects of a corrected family, under the names reported."""
    keys = ("projection", "self_adjoint", "orthogonality", "equivariance",
            "unit_sum")
    return dict(zip(keys, astuple(measure_partition_seeds(algebra, family, unit))))


def _averaged_seeds(algebra: GAlgebra, seeds: np.ndarray) -> np.ndarray:
    """The exactly permuted family b_g = avg_h alpha_h(p_{h^-1 g}) (one
    action per h on the whole family), made self-adjoint."""
    G = algebra.group
    sym = haar_average(G, lambda h: algebra.act(h, seeds[G.mult[G.inverse(h)]]))
    return (sym + sym.conj().transpose(0, 2, 1)) / 2


def partition_admissibility_threshold(d: int) -> float:
    """Conservative seed-defect bound under which the correction pipeline is
    guaranteed: propagate a uniform seed defect delta through symmetrization
    (displacement <= delta), the near-unitarity of the encoded element
    (||w0* w0 - 1|| <= d(d-1)(delta + 2 delta M) + d delta (2M + 2) +
    (d+1) delta with M = 1 + 2 delta), the polar step (movement
    max(1 - sqrt(1-eta), sqrt(1+eta) - 1)), and the spectral-rounding margin
    (eigenvalue argument within pi/(2d) of a d-th root, the half-gap
    condition).  Solved numerically by bisection."""

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
        drift = tau + 2 * d * delta
        return drift < math.sin(math.pi / (2 * d))

    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = (lo + hi) / 2
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass
class PartitionCorrection:
    projections: np.ndarray
    displacement: float
    seed_defects: SeedDefects
    certificate: dict
    residuals: dict


def _require_standard_cyclic(group: FiniteGroup):
    if not group.is_cyclic_standard():
        raise ValueError("partition correction requires a cyclic group in "
                         "standard form (element i = generator**i)")


def stabilize_partition(algebra: GAlgebra, seeds: np.ndarray) -> PartitionCorrection:
    """Correct an approximately permuted approximate partition of unity over
    a cyclic group action into an exact one.

    Pipeline: group-average the seeds into an exactly permuted family, encode
    it as w0 = sum_g zeta^g b_g (zeta = exp(2 pi i / d)), average to the
    exactly covariant a = (1/d) sum_lambda lambda gamma_lambda(w0), take the
    polar unitary, round its spectrum onto the d-th roots of unity, and read
    off the eigenprojections.  The output family consists of exact mutually
    orthogonal projections summing to one and exactly permuted by the
    action; each stage validates its own measured precondition.
    """
    G = algebra.group
    _require_standard_cyclic(G)
    d = G.order
    n = algebra.dim
    seeds = np.asarray(seeds, dtype=complex)
    if seeds.shape != (d, n, n):
        raise ValueError(f"seeds shape {seeds.shape}, expected {(d, n, n)}")
    defects = measure_partition_seeds(algebra, seeds)
    threshold = partition_admissibility_threshold(d)
    certificate = {"seed_defect": defects.overall,
                   "a_priori_threshold": threshold}

    sym = _averaged_seeds(algebra, seeds)

    zeta = np.exp(2j * np.pi / d)
    w0 = sum((zeta ** g) * sym[g] for g in range(d))
    # Covariance averaging (idempotent once the family is exactly permuted).
    a = sum((zeta ** g) * algebra.act(g, w0) for g in range(d)) / d
    eta = operator_norm(a.conj().T @ a - np.eye(n))
    certificate["encoded_unitarity_gap"] = eta
    if eta >= 0.75:
        raise DefectTooLargeError(
            f"seeds too rough: ||w0* w0 - 1|| = {eta:.6g} >= 0.75 "
            f"(seed defect {defects.overall:.6g}, a-priori threshold {threshold:.6g})")
    w = polar_unitary(a)
    cov = max(operator_norm(algebra.act(g, w) - (zeta ** (-g)) * w)
              for g in range(d))
    certificate["covariance_residual"] = cov

    # The half-gap condition: every eigenvalue argument within pi/(2d) of a
    # d-th root.
    half_gap = np.pi / (2 * d)
    _, spec, ks = spectral_round_unitary(w, d, midpoint_gap=1e-6,
                                         return_spectral=True)
    args = np.angle(spec.eigenvalues)
    cell = 2 * np.pi / d
    margin = float(np.min(np.abs(np.mod(args, cell) - cell / 2)))
    certificate["midpoint_margin"] = margin
    certificate["required_arg_margin"] = half_gap
    arg_dev = float(np.max(np.minimum(np.mod(args, cell), cell - np.mod(args, cell))))
    if arg_dev >= half_gap:
        raise DefectTooLargeError(
            f"spectrum of the encoded unitary strays {arg_dev:.6g} rad from the "
            f"d-th roots, beyond the admissible margin {half_gap:.6g}")

    v = spec.eigenvectors
    projections = np.empty((d, n, n), dtype=complex)
    for g in range(d):
        cols = v[:, ks == g]
        projections[g] = cols @ cols.conj().T

    residuals = _residuals(algebra, projections)
    displacement = max(operator_norm(projections[g] - seeds[g]) for g in range(d))
    return PartitionCorrection(projections=projections, displacement=displacement,
                               seed_defects=defects, certificate=certificate,
                               residuals=residuals)


@dataclass
class TracialPartitionCorrection:
    projections: np.ndarray
    corner_projection: np.ndarray
    witness_compression_norm: float
    complement_rank: int
    displacement: float
    seed_defects: SeedDefects
    certificate: dict
    residuals: dict


def stabilize_tracial_partition(algebra: GAlgebra, seeds: np.ndarray,
                                witness: np.ndarray) -> TracialPartitionCorrection:
    """Tracial variant: the seeds sum to an approximately invariant
    sub-identity projection q rather than to 1.  Rounds the invariant sum to
    an exact invariant projection, compresses everything to the corner
    q M q, runs the partition correction there, and reports the witness
    compression norm ||e x e|| and the rank of 1 - e for the caller."""
    G = algebra.group
    _require_standard_cyclic(G)
    d = G.order
    n = algebra.dim
    seeds = np.asarray(seeds, dtype=complex)
    witness = np.asarray(witness, dtype=complex)
    wnorm = operator_norm(witness)
    if operator_norm(witness - witness.conj().T) > 1e-10 or abs(wnorm - 1) > 1e-10:
        raise ValueError("witness must be positive with norm 1")
    defects = measure_partition_seeds(algebra, seeds)   # unit_sum is vs 1 here

    sym = _averaged_seeds(algebra, seeds)
    s = sym.sum(axis=0)
    inv_gap = max(operator_norm(algebra.act(g, s) - s) for g in range(d))
    if inv_gap > 1e-10:
        raise DefectTooLargeError(
            f"summed seeds not invariant after averaging (gap {inv_gap:.3e})")
    q = round_to_projection(s)

    vals, vecs = np.linalg.eigh((q + q.conj().T) / 2)
    live = vals > 0.5
    iso = vecs[:, live]                      # n x r isometry onto the corner
    r = iso.shape[1]
    corner_unitaries = []
    for g in range(d):
        u = algebra.unitaries[g][0]    # dense seeds: a one-block algebra
        cu = iso.conj().T @ u @ iso
        corner_unitaries.append(polar_unitary(cu))
    corner = matrix_algebra(r, G, corner_unitaries, action_tol=1e-10)
    corner_defect = corner.action_defect()
    corner_seeds = np.stack([iso.conj().T @ sym[g] @ iso for g in range(d)])

    inner = stabilize_partition(corner, corner_seeds)
    projections = np.stack([iso @ inner.projections[g] @ iso.conj().T
                            for g in range(d)])

    residuals = _residuals(algebra, projections, unit=q)
    exe = operator_norm(q @ witness @ q)
    displacement = max(operator_norm(projections[g] - seeds[g]) for g in range(d))
    certificate = dict(inner.certificate)
    certificate["corner_action_defect"] = corner_defect
    certificate["corner_rank"] = r
    return TracialPartitionCorrection(
        projections=projections, corner_projection=q,
        witness_compression_norm=exe, complement_rank=n - r,
        displacement=displacement, seed_defects=defects,
        certificate=certificate, residuals=residuals)
