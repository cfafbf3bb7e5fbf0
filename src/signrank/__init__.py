"""Exact computation with sign pattern matrices and sign vectors of
rational subspaces: minimum-rank decision procedures, rational
realizations, oriented-matroid duality verification, and extremal
sign-vector counts."""

from .rational import (
    RationalMatrix,
    RationalSubspace,
    nullspace_basis,
    orth_complement,
    rank,
    rref,
    schur_complement,
)
from .signs import (
    MINUS,
    PLUS,
    ZERO,
    SignPattern,
    SignVector,
    SignVectorSet,
    condense,
    condense_with_trace,
    max_rank,
    orthogonal,
    set_perp,
    sign_of,
    sign_of_vector,
)
from .covectors import (
    SubspaceSignReport,
    DualityCheck,
    member_witness,
    random_subspace,
    same_sign_dim_check,
    sign_vectors,
    strict_feasibility,
    verify_duality,
)
from .rank2 import (
    Mr2Certificate,
    Rank2Type,
    enumerate_rank2_types,
    find_plane_type,
    mr_le_2,
    realize_rank2,
    sign_set_of_type,
    type_sign_sets,
)
from .rank3 import (
    Rank3Result,
    rank3_search,
)
from .minrank import (
    Certificate,
    MinRankBracket,
    is_L_matrix,
    min_rank,
    mr_eq_n_minus_1,
    mr_le_n_minus_2,
    random_upper_bound,
)
from .realize import (
    RealizationResult,
    RealizeOutcome,
    RationalizeOutcome,
    rationalize_equation,
    realize_corank2,
)
from .extremal import (
    ExtremalReport,
    s2_exhaustive_max,
    s2_witness_count,
    s3_lower_witness,
    s_hyperplane_max,
    s_min_witness,
    t1t2_pattern,
)

__version__ = "0.1.0"
