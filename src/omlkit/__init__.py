"""Verification toolkit for finite orthomodular lattices and event rings.

The package checks, constructs and cross-validates three kinds of finite
structure: orthomodular lattices given by order and complement, ring-like
event structures given by two operation tables, and sets of numerical
events (probability vectors under a full set of states).  Everything is
exact: orders and tables are index arithmetic, probabilities are
Fractions, and every derived result is re-verified against an
independent computation where one exists.
"""

from .corpus import all_names, builtin
from .errors import (
    CustomPlusInvalid,
    CycleError,
    DimensionMismatch,
    EmptyCorpus,
    InvalidState,
    MalformedTable,
    NoBoundsError,
    NotAnEventAlgebra,
    NotAnRlse,
    NotFull,
    NotLatticeOrdered,
    NotUncomparable,
    OmlkitError,
    OracleMismatch,
    ParseError,
    UnknownLabel,
    UnknownName,
    ValidationError,
)
from .lattice import (
    FiniteOml,
    FinitePoset,
    build_poset,
    check_oml,
    direct_product,
    is_distributive,
)
from .rlse import (
    RlseTables,
    check_correspondence,
    check_derived_identities,
    check_r4_orthogonal_form,
    check_r5,
    check_rlse,
    check_weak_assoc,
    check_identity_T,
    derived_lattice,
    is_boolean_ring,
    rlse_from_oml,
)
from .states import (
    State,
    boolean_test,
    check_full,
    check_representation,
    check_s_probability_algebra,
    check_state,
    events_from_states,
    find_full_state_set,
    find_separating_state,
)
from .structfile import parse_structure, serialize_structure
from .terms import (
    T1,
    T2,
    THAT,
    chain_check,
    enumerate_canonical_terms,
    eval_term,
    filter_symmetric_difference_terms,
    format_term,
    parse_term,
    term_function,
)

__version__ = "0.1.0"
