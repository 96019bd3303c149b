"""Weighted-subspace measurement frames on finite-dimensional real spaces.

The library realizes frame theory for families of weighted subspaces
measured through local operators, indexed by finite quadrature nodes:
frame operators and optimal bounds, lower-bound certificates against a
comparison operator, resolutions of the identity, atomic decompositions,
mixed operators for system pairs, direct sums, Parseval canonicalization
and canonical duals.  Every structural law these objects satisfy is
available as an executable construction or a machine-checkable certificate.
"""

from .errors import (
    DegenerateKError,
    GFusionError,
    HypothesisNotMetError,
    NotPositiveError,
    NotSymmetricError,
    ParameterError,
    RangeInclusionError,
    ShapeError,
    SingularError,
    SingularFrameOperatorError,
    SystemFileError,
)
from .measure import (
    CoefficientField,
    MeasureNodes,
    WeightProfile,
    validate_nodes,
    weighted_inner,
    weighted_norm,
)
from .operators import (
    Operator,
    OrderCertificate,
    Subspace,
    douglas_factor,
    operator_leq,
    opnorm,
    orthonormal_columns,
    orthonormalize_image,
    pinv,
    positive_sqrt,
    project,
    projection_identity_check,
)
from .report import VerificationReport, build_report, dumps_canonical
from .systems import (
    FrameBounds,
    GFusionSystem,
    adjoint_consistency,
    analysis,
    assemble_frame_operator,
    frame_bounds,
    kgf_check,
    kgf_lower_bound,
    synthesis,
    weighted_gram,
)
from .resolution import (
    ResolutionFamily,
    bounded_resolution_check,
    canonical_resolution,
    energy_lower_check,
    factor_energy,
    frame_from_resolution,
    verify_resolution,
)
from .atomic import (
    AtomicCertificate,
    atomic_decompose,
    atomic_equiv_check,
    atomic_wrt_frame_operator,
    decomposition_operator,
    transform_combined,
    transform_shift,
)
from .pair import (
    PairSystem,
    bounded_below_analysis,
    pair_adjoint_and_norm,
    pair_frame_operator,
    perturbation_bound,
    symmetric_perturbation,
)
from .direct_sum import (
    DirectSumSystem,
    canonical_dual,
    direct_sum_system,
    parsevalize,
)
from .random_systems import (
    random_operator,
    random_pair,
    random_positive_operator,
    random_shared_weight_frames,
    random_system,
)
from .sysio import load_operator, load_system, save_system, system_to_document

__version__ = "0.1.0"

__all__ = [
    "AtomicCertificate",
    "CoefficientField",
    "DegenerateKError",
    "DirectSumSystem",
    "FrameBounds",
    "GFusionError",
    "GFusionSystem",
    "HypothesisNotMetError",
    "MeasureNodes",
    "NotPositiveError",
    "NotSymmetricError",
    "Operator",
    "OrderCertificate",
    "PairSystem",
    "ParameterError",
    "RangeInclusionError",
    "ResolutionFamily",
    "ShapeError",
    "SingularError",
    "SingularFrameOperatorError",
    "Subspace",
    "SystemFileError",
    "VerificationReport",
    "WeightProfile",
    "adjoint_consistency",
    "analysis",
    "assemble_frame_operator",
    "atomic_decompose",
    "atomic_equiv_check",
    "atomic_wrt_frame_operator",
    "bounded_below_analysis",
    "bounded_resolution_check",
    "build_report",
    "canonical_dual",
    "canonical_resolution",
    "decomposition_operator",
    "direct_sum_system",
    "douglas_factor",
    "dumps_canonical",
    "energy_lower_check",
    "factor_energy",
    "frame_bounds",
    "frame_from_resolution",
    "kgf_check",
    "kgf_lower_bound",
    "load_operator",
    "load_system",
    "operator_leq",
    "opnorm",
    "orthonormal_columns",
    "orthonormalize_image",
    "pair_adjoint_and_norm",
    "pair_frame_operator",
    "parsevalize",
    "perturbation_bound",
    "pinv",
    "positive_sqrt",
    "project",
    "projection_identity_check",
    "random_operator",
    "random_pair",
    "random_positive_operator",
    "random_shared_weight_frames",
    "random_system",
    "save_system",
    "symmetric_perturbation",
    "synthesis",
    "system_to_document",
    "transform_combined",
    "transform_shift",
    "validate_nodes",
    "verify_resolution",
    "weighted_gram",
    "weighted_inner",
    "weighted_norm",
]
