"""Exact classification of enhanced nilpotent orbits of GL_n.

The package classifies pairs (nilpotent matrix, vector) up to the action
of GL_n extended by translations, computes orbit dimensions and the
closure order, handles the exceptional three-dimensional GL_2 module,
decides orbit finiteness for general irreducible modules, and ships a
finite-field brute-force oracle that re-derives the classification from
nothing but the group action.
"""

from .errors import (
    CharNotZero,
    EnorbitsError,
    InvalidQ,
    NotDominant,
    NotInvertible,
    NotNilpotent,
    NotSquare,
    OutOfRange,
    ParseError,
    SizeMismatch,
)
from .partitions import (
    Bipartition,
    EnhancedPartition,
    OrbitPoset,
    Partition,
    allowed_q,
    bipartition_of,
    build_poset,
    cohomology_total_dim,
    dim_enhanced_orbit,
    dim_orbit,
    dominance_leq,
    enhanced_leq,
    enhanced_number,
    enhanced_number_vector,
    enhanced_partitions_of,
    fiber_dim,
    ic_summand_support,
    lower,
    lowerings,
    parse_enhanced,
    partitions_of,
    semismall_check,
)
from .linalg import (
    ExactMatrix,
    GF,
    JordanData,
    QQ,
    centralizer_basis,
    enhanced_centralizer_dim,
    is_nilpotent,
    jordan_basis,
    jordan_matrix,
    jordan_type,
    kernel_basis,
    load_matrix,
    load_vector,
    matrix_from_json,
    matrix_to_json,
    rank,
    rank_of_vectors,
    save_matrix,
    solve,
)
from .orbits import (
    EnhancedElement,
    OrbitDescriptor,
    canonical_representative,
    classify,
    classify_invariant,
    closure_contains,
    closure_contains_element,
    describe,
    flag_blocks,
    flag_dims,
)
from .gl2 import (
    Gl2Orbit,
    QuadraticVector,
    classify_gl2,
    enhanced_adjoint,
    gl2_closure_poset,
    gl2_contains,
    gl2_dims,
    sym2_matrix_action,
)
from .finiteness import (
    Finiteness,
    WeightSpec,
    decide_enhanced,
    decide_gl_variety,
    normalize_det_twist,
)
from .census import (
    CensusOrbit,
    CensusReport,
    enhanced_number_oracle,
    enumerate_nilpotents,
    gl_order,
    orbit_census,
    pack_state,
    unpack_state,
)

__version__ = "0.1.0"
