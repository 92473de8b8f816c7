"""Exact Novikov homology over polytope Novikov rings.

Finite equivariant CW complexes with free abelian deck group, twisted by
rational cohomology classes or by polytopes of such classes. Everything
is exact rational or mod-2 arithmetic; Betti numbers are ranks over the
fraction field of the deck quotient's Laurent ring, and a truncated
series oracle cross-checks the rank-one cases.
"""

from .errors import (
    AmbiguousLeadingTerm,
    CoverMismatch,
    CyclicMatchingError,
    IncreaseOrder,
    InputError,
    NotInvertibleUnderPolytope,
    PolynovError,
    ValidationError,
)
from .lattice import (
    CohomologyClass,
    DeckGroup,
    LatticeMap,
    Polytope,
    Subpolytope,
    active_vertices,
    convex_combination,
    format_rational,
    kernel_lattice,
    parse_rational,
    period_eval,
    polytope_min_period,
    quotient_map,
    zero_class,
)
from .groupring import (
    CoefficientRing,
    GroupRingElement,
    RankResult,
    matrix_rank_fraction_field,
)
from .novseries import (
    TruncatedNovikovSeries,
    Truncation,
    geom_inverse,
    leading_unit_inverse,
    positivity_check,
)
from .complexes import (
    EquivariantComplex,
    GroupPresentation,
    fox_boundary,
    ingest,
    scale_check,
)
from .twist import (
    TwistedComplex,
    lift_conjugation_self_test,
    tensor_base_change,
    twisted_complex,
    zero_vertex_extend,
)
from .morse import (
    Matching,
    acyclic_matching,
    morse_reduce,
    validate_matching,
    vpath_boundary,
)
from .homology import (
    ApproximationFamily,
    BettiReport,
    euler_characteristic,
    main_theorem_check,
    novikov_betti,
    ordinary_betti,
    polytope_betti,
    rational_approximation,
    truncated_homology_oracle,
)
from . import corpus

__version__ = "0.1.0"

__all__ = [
    "AmbiguousLeadingTerm",
    "ApproximationFamily",
    "BettiReport",
    "CoefficientRing",
    "CohomologyClass",
    "CoverMismatch",
    "CyclicMatchingError",
    "DeckGroup",
    "EquivariantComplex",
    "GroupPresentation",
    "GroupRingElement",
    "IncreaseOrder",
    "InputError",
    "LatticeMap",
    "Matching",
    "NotInvertibleUnderPolytope",
    "Polytope",
    "PolynovError",
    "RankResult",
    "Subpolytope",
    "TruncatedNovikovSeries",
    "Truncation",
    "TwistedComplex",
    "ValidationError",
    "acyclic_matching",
    "active_vertices",
    "convex_combination",
    "corpus",
    "euler_characteristic",
    "fox_boundary",
    "format_rational",
    "geom_inverse",
    "ingest",
    "kernel_lattice",
    "leading_unit_inverse",
    "lift_conjugation_self_test",
    "main_theorem_check",
    "matrix_rank_fraction_field",
    "morse_reduce",
    "novikov_betti",
    "ordinary_betti",
    "parse_rational",
    "period_eval",
    "polytope_betti",
    "polytope_min_period",
    "positivity_check",
    "quotient_map",
    "rational_approximation",
    "scale_check",
    "tensor_base_change",
    "truncated_homology_oracle",
    "twisted_complex",
    "validate_matching",
    "vpath_boundary",
    "zero_class",
    "zero_vertex_extend",
]
