"""Finite Hilbert algebra toolkit.

Implication tables with their filters, multipliers, closure endomorphisms,
the kernel and fixpoint correspondences, adjoint semilattices and minimal
Brouwerian extensions; exhaustive enumeration up to isomorphism; and
verification suites that check the structure theorems on concrete algebras.
"""

from .adjoint import (
    adjoint_ideal_lattice,
    adjoint_semilattice,
    compact_elements,
    composite_translation,
    minimal_brouwerian_extension,
)
from .closure import (
    CeLattice,
    NonMonomialFilterError,
    NotClosureRetractError,
    NotSpecialError,
    all_closure_endos,
    ce_from_monomial_filter,
    ce_from_retract,
    cross_meets,
    finitely_generated_ce,
    is_closure_endomorphism,
    is_closure_operator,
    is_closure_retract,
    is_endomorphism,
    is_extensive,
    is_idempotent,
    is_isotone,
    search_endomorphisms,
    special_closure_retracts,
)
from .core import (
    AlgebraClass,
    FiniteHilbertAlgebra,
    HilbertAxiomError,
    InvariantViolation,
    MalformedTableError,
    Violation,
    axiom_violations,
    classify,
    compatible_meet,
    is_relative_subsemilattice,
    is_subalgebra,
    partial_join,
    partial_meet,
    validate_hilbert,
)
from .enumeration import (
    AlgebraCatalog,
    CatalogEntry,
    EndoMonoid,
    EnumerationBound,
    are_isomorphic,
    canonical_table,
    cross_survey_report,
    endomorphism_monoid,
    enumerate_algebras,
    monoid_isomorphism,
    search_valid_tables,
)
from .filters import (
    FilterLattice,
    all_filters,
    class_of,
    filter_generated,
    is_filter,
    is_monomial,
    monomial_max,
)
from .lattice import FiniteLattice, LatticeError
from .multipliers import (
    MultiplierAlgebra,
    all_multipliers,
    compose,
    constant_one,
    fixpoints,
    identity_map,
    is_multiplier,
    join_translation,
    kernel,
    multiplier_calculus_report,
    pointwise_imp,
    pointwise_leq,
    pointwise_meet,
    search_multipliers,
    translation,
)
from .report import CheckResult, ReportBuilder, VerificationReport
from .structures import Structures

__version__ = "0.1.0"
