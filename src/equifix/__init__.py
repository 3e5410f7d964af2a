"""equifix: correct approximate equivariant structures on finite-dimensional
matrix algebras to exact ones, with certified quantitative error bounds.

Subpackages: finite groups (groups), matrix functional calculus (matfun),
G-algebras, quotient towers and group averages (galgebra), representation
correction and equivariant lifting (repcorrect), cocycle trivialization
(cocycles), partition stabilization, plain and tracial (relations),
abelian gradings (graded), and the scenario runner (scenarios, cli).
Each gate's tolerance is a constant of the kernel that gates with it; a
map from a group, exact or not, a representation or a cocycle, is an
ApproxRep, and every iterated corrector, graded too, returns a Correction.
"""

from .groups import (FiniteGroup, cyclic_group, dihedral_group, make_group,
                     product_group, symmetric_group)
from .matfun import (Blocks, exp_skew, largest_norm, polar_unitary,
                     principal_log_unitary, spectral_round_unitary)
from .galgebra import GAlgebra, Tower, matrix_algebra
from .repcorrect import (EPS0, UNITARIZE_EPS, ApproxRep, Correction,
                         SourceAction, correct_to_rep, intertwiner,
                         lift_group_rep, one_step, symmetrize,
                         translation_source_action)
from .cocycles import (coboundary, cocycle, mismatch, one_step_cobound,
                       trivialize, verify_integral_estimate)
from .relations import stabilize_partition, stabilize_tracial_partition
from .graded import (GradedAlgebra, character_table, graded_correct,
                     regular_graded_model)

__version__ = "0.1.0"
