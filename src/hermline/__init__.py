"""Projective lines over matrix rings and their isotropic geometry.

The package works over GF(p^k) for small prime powers, with either the
identity or the Frobenius involution.  Points of the projective line
over the ring of n x n matrices are canonical n-dimensional subspaces
of K^(2n); hermitian parameter pairs single out the maximal totally
isotropic subspaces of the standard anti-hermitian form, and the
harness verifies the correspondence exhaustively.
"""

from .fields import FROBENIUS, IDENTITY, FieldSpec, make_field
from .harness import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GeometryConfig,
    RelationGraph,
    build_graph,
    enumerate_grassmannian,
    gaussian_binomial,
    graph_report,
    jordan_system_axioms_check,
    predicted_point_count,
    report_to_json,
    verify_remarks,
    verify_theorem1,
)
from .hermitian import (
    SesquilinearForm,
    bartolone_hermitian,
    common_complement,
    decompose_isotropic,
    enumerate_isotropic,
    hermitian_adjacent_star,
    hermitian_matrices,
    isotropic_meeting_perp,
    standard_form,
)
from .matrices import Matrix, Subspace, all_matrices, enumerate_subspaces, nullspace
from .projline import (
    ANTIAUTOMORPHISM,
    AUTOMORPHISM,
    BartolonePair,
    JordanMapSpec,
    SubspacePoint,
    annihilator,
    arithmetical_distance,
    bartolone,
    base_point,
    enumerate_points,
    is_adjacent,
    is_distant,
    pencil,
    point_from_matrix,
    point_from_pair,
    sphere,
    stable_rank_witness,
    star,
    top,
)

__version__ = "0.1.0"

__all__ = [
    "ANTIAUTOMORPHISM",
    "AUTOMORPHISM",
    "BartolonePair",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "FROBENIUS",
    "FieldSpec",
    "GeometryConfig",
    "IDENTITY",
    "JordanMapSpec",
    "Matrix",
    "RelationGraph",
    "SesquilinearForm",
    "Subspace",
    "SubspacePoint",
    "all_matrices",
    "annihilator",
    "arithmetical_distance",
    "bartolone",
    "bartolone_hermitian",
    "base_point",
    "build_graph",
    "common_complement",
    "decompose_isotropic",
    "enumerate_grassmannian",
    "enumerate_isotropic",
    "enumerate_points",
    "enumerate_subspaces",
    "gaussian_binomial",
    "graph_report",
    "hermitian_adjacent_star",
    "hermitian_matrices",
    "is_adjacent",
    "is_distant",
    "isotropic_meeting_perp",
    "jordan_system_axioms_check",
    "make_field",
    "nullspace",
    "pencil",
    "point_from_matrix",
    "point_from_pair",
    "predicted_point_count",
    "report_to_json",
    "sphere",
    "stable_rank_witness",
    "standard_form",
    "star",
    "top",
    "verify_remarks",
    "verify_theorem1",
    "__version__",
]
