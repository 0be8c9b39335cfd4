"""Complete-positivity lab: semigroup generators, CP certification and
entangled witness construction for the doubled dynamics."""

from .basis import OperatorBasis, standard_basis
from .dynamics import (
    CPVerdict,
    DensityMatrix,
    choi_matrix,
    evolution_map,
    is_completely_positive,
)
from .generator import (
    GKSGenerator,
    LindbladGenerator,
    Superoperator,
    gks_to_lindblad,
    lindblad_to_gks,
    superoperator_of,
)
from .linalg import (
    matrix_exp,
    min_eigenvalue,
    similarity_to_transpose,
)
from .witness import (
    NegativityScan,
    NoNegativeDirection,
    WitnessCandidate,
    bell_phi_matrix,
    construct_witness,
    direction_operator,
    negativity_scan,
    overlap_rate,
)

__version__ = "0.1.0"

__all__ = [
    "CPVerdict",
    "DensityMatrix",
    "GKSGenerator",
    "LindbladGenerator",
    "NegativityScan",
    "NoNegativeDirection",
    "OperatorBasis",
    "Superoperator",
    "WitnessCandidate",
    "bell_phi_matrix",
    "choi_matrix",
    "construct_witness",
    "direction_operator",
    "evolution_map",
    "gks_to_lindblad",
    "is_completely_positive",
    "lindblad_to_gks",
    "matrix_exp",
    "min_eigenvalue",
    "negativity_scan",
    "overlap_rate",
    "similarity_to_transpose",
    "standard_basis",
    "superoperator_of",
    "__version__",
]
