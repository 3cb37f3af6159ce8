"""Exact rational toolkit for LCP matrix classes and cone complementarity."""

from .matrix import RationalMatrix, Rational, Subspace, rat, vec
from .lp import LinearSystem, LpOutcome, lp_feasible, lp_optimize
from .geninv import (
    GroupInverseResult,
    generalized_idempotent_scalar,
    group_inverse,
    index_at_most_one,
    is_range_symmetric,
    moore_penrose,
)
from .minor_classes import (
    MClass,
    MinorClassReport,
    StructuralFlags,
    has_property_c,
    is_h_matrix_positive_diag,
    is_m_matrix,
    minor_class,
    structural_flags,
)
from .lcp_classes import (
    ConeRep,
    CopositivityResult,
    CopositivityStatus,
    copositivity_on_cone,
    is_almost_semimonotone,
    is_p_hash,
    is_semimonotone,
    is_semipositive,
    is_strictly_copositive,
    is_strictly_range_semimonotone,
    is_strictly_semimonotone,
    is_weakly_semipositive,
)
from .monotone import (
    is_almost_monotone,
    is_gi_semimonotone,
    is_group_monotone,
    is_monotone,
    is_range_monotone,
    is_row_monotone,
)
from .lcp import (
    LcpSolutionSet,
    Verdict,
    YES,
    NO,
    UNKNOWN,
    is_q_matrix,
    lcp_solutions,
    lcp_unique_zero,
)
from .conelcp import (
    ConeData,
    RankOneClassification,
    classify_2x2,
    cone_K,
    cone_lcp_only_zero,
    cone_lcp_solutions,
    dual_membership,
    int_dual_membership,
    is_karamardian,
    karamardian_of_group_inverse,
    rank_one_classification,
)
from .construct import (
    BorderResult,
    CayleyShift,
    border_karamardian,
    border_m_matrix,
    cayley_g_epsilon,
    direct_sum,
    householder_like,
    rank_one,
    stochastic_shift,
)
from .corpus import CorpusEntry, corpus_entries, verify_entry

__version__ = "0.1.0"
