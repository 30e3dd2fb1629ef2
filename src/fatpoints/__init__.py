"""Dimensions of linear systems with fat base points.

Compute virtual/expected dimensions, classify the Alexander-Hirschowitz
special cases, verify dimensions by exact finite-field interpolation-matrix
rank, and generate/verify machine-checkable certificates for the
degeneration-based induction.
"""

from .combinatorics import (
    b0_decompose,
    binom,
    expected_dim,
    gamma_r,
    h_planar,
    k0,
    k_general,
    k_quartic,
    n_bounds,
    virtual_dim,
)
from .certificates import (
    Claim,
    OracleStamp,
    ProofNode,
    SideCondition,
    VerifyResult,
    certificate_from_json,
    certificate_to_json,
    explain,
    verify,
)
from .errors import BudgetError, FatpointsError, ParseError
from .linalg import rank_mod_p
from .oracle import (
    DimensionReport,
    FieldConfig,
    condition_matrix,
    dimension,
    is_empty,
)
from .prover import ProveError, Prover, prove
from .systems import (
    BaseCondition,
    FatPoint,
    FatSubspace,
    LinearSystem,
    PointOnSubspace,
    SpecialVerdict,
    castelnuovo_split,
    classify,
    classify_system,
    cone_reduce,
    dominates,
    limit_dim,
    parse_system,
    planar_dim,
    quadric_dim,
    transversal_intersection_dim,
)

__version__ = "0.1.0"

__all__ = [
    "BaseCondition",
    "BudgetError",
    "Claim",
    "DimensionReport",
    "FatPoint",
    "FatSubspace",
    "FatpointsError",
    "FieldConfig",
    "LinearSystem",
    "OracleStamp",
    "ParseError",
    "PointOnSubspace",
    "ProofNode",
    "ProveError",
    "Prover",
    "SideCondition",
    "SpecialVerdict",
    "VerifyResult",
    "b0_decompose",
    "binom",
    "castelnuovo_split",
    "certificate_from_json",
    "certificate_to_json",
    "classify",
    "classify_system",
    "condition_matrix",
    "cone_reduce",
    "dimension",
    "dominates",
    "expected_dim",
    "explain",
    "gamma_r",
    "h_planar",
    "is_empty",
    "k0",
    "k_general",
    "k_quartic",
    "limit_dim",
    "n_bounds",
    "parse_system",
    "planar_dim",
    "prove",
    "quadric_dim",
    "rank_mod_p",
    "transversal_intersection_dim",
    "verify",
    "virtual_dim",
]
