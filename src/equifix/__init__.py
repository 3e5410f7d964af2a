"""equifix: correct approximate equivariant structures on finite-dimensional
matrix algebras to exact ones, with certified quantitative error bounds.

Subpackages: finite groups and exact averaging (groups), matrix functional
calculus (matfun), G-algebras and quotient towers (galgebra), representation
correction and equivariant lifting (repcorrect), cocycle trivialization
(cocycles), partition stabilization, plain and tracial (relations),
abelian gradings (graded), and the scenario runner (scenarios, cli).
"""

from .groups import (CircleWeights, FiniteGroup, circle_average, cyclic_group,
                     dihedral_group, haar_average, make_group, product_group,
                     symmetric_group)
from .matfun import (EPS0, UNITARIZE_EPS, Blocks, SpectralData, close,
                     exp_skew, normal_eigensystem, operator_norm, polar_unitary,
                     principal_log_unitary, round_to_projection,
                     spectral_round_unitary)
from .galgebra import (GAlgebra, GHom, Tower, matrix_algebra,
                       trivial_action_algebra)
from .repcorrect import (ApproxRep, SourceAction, correct_to_rep, intertwiner,
                         lift_group_rep, one_step, symmetrize,
                         translation_source_action, unitarize_values)
from .cocycles import (Cocycle, coboundary, one_step_cobound, trivialize,
                       verify_integral_estimate)
from .relations import stabilize_partition, stabilize_tracial_partition
from .graded import (GradedAlgebra, character_table, graded_correct,
                     regular_graded_model)

__version__ = "0.1.0"
