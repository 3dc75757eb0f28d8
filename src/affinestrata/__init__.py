"""Exact-arithmetic classification of locally homogeneous affine surface
models with constant or 1/x1-scaled connection coefficients."""

from .exact import CirclePoint, LinearMap2, Mat2, ShearMap, circle_from_slope, jacobian
from .models import (
    CATALOG,
    CatalogError,
    Model,
    ModelParseError,
    TypeAModel,
    TypeBModel,
    canonical_model,
    negate_model,
    parse_model,
    serialize_model,
    type_a,
    type_b,
)
from .curvature import (
    RankSig,
    Ricci2,
    RicciSplit,
    StratumFlags,
    rank_signature,
    ricci,
    ricci_type_a,
    ricci_type_b,
    split_ricci,
    stratum_flags,
)
from .law import orbit_dimension_a, pullback_type_a, pullback_type_b
from .matchers import NotFlatError, UnmatchedOrbitError, match_flat_a_orbit, match_rank1_family
from .group_action import (
    EquivalenceWitnesses,
    IsotropyFamily,
    IsotropyGroup,
    UndecidedError,
    isotropy_type_a,
    solve_equivalence_a,
    solve_equivalence_b,
)
from .strata import (
    ConePointError,
    FlatAChart,
    NonRationalCirclePointError,
    NonRationalRotationError,
    NotInStratumError,
    NotRank1Error,
    Rank1Chart,
    TypeBMembership,
    alt_b_param,
    classify_alt_b,
    classify_flat_b,
    flat_a_coords,
    flat_a_param,
    flat_b_param,
    rank1_chart_forward,
    rank1_chart_inverse,
    rank1_reduce,
    tangent_sum_rank,
)
from .classify import (
    ClassificationReport,
    VerificationReport,
    admits_type_b,
    classify_model,
    verify_theorems,
)

__version__ = "0.1.0"
