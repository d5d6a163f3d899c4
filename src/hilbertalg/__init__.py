"""Finite Hilbert algebra toolkit.

Implication tables with their filters, multipliers, closure endomorphisms,
the kernel and fixpoint correspondences, adjoint semilattices and minimal
Brouwerian extensions; exhaustive enumeration up to isomorphism; and
verification suites that check the structure theorems on concrete algebras.

Every name below is read from its submodule on first use (PEP 562), on each
access, so importing one module loads only what that module imports: ``import
hilbertalg.core`` loads ``core`` and ``lattice``, and no other module.  The
package keeps no copy of a name, so a submodule attribute rebound later is seen
through the package too.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "adjoint_ideals": "adjoint",
    "adjoint_semilattice": "adjoint",
    "compact_elements": "adjoint",
    "minimal_brouwerian_extension": "adjoint",
    "CeLattice": "closure",
    "NonMonomialFilterError": "closure",
    "NotClosureRetractError": "closure",
    "NotSpecialError": "closure",
    "all_closure_endos": "closure",
    "ce_from_monomial_filter": "closure",
    "ce_from_retract": "closure",
    "cross_meets": "closure",
    "is_closure_endomorphism": "closure",
    "is_closure_operator": "closure",
    "is_closure_retract": "closure",
    "is_endomorphism": "closure",
    "is_extensive": "closure",
    "is_idempotent": "closure",
    "is_isotone": "closure",
    "search_endomorphisms": "closure",
    "special_closure_retracts": "closure",
    "AlgebraClass": "core",
    "FiniteHilbertAlgebra": "core",
    "HilbertAxiomError": "core",
    "InvariantViolation": "core",
    "MalformedTableError": "core",
    "Violation": "core",
    "axiom_violations": "core",
    "classify": "core",
    "compatible_meet": "core",
    "partial_join": "core",
    "partial_meet": "core",
    "validate_hilbert": "core",
    "AlgebraCatalog": "enumeration",
    "CatalogEntry": "enumeration",
    "EndoMonoid": "enumeration",
    "EnumerationBound": "enumeration",
    "are_isomorphic": "enumeration",
    "canonical_table": "enumeration",
    "cross_survey_report": "enumeration",
    "endomorphism_monoid": "enumeration",
    "enumerate_algebras": "enumeration",
    "monoid_isomorphism": "enumeration",
    "search_valid_tables": "enumeration",
    "FilterLattice": "filters",
    "all_filters": "filters",
    "class_of": "filters",
    "filter_generated": "filters",
    "is_filter": "filters",
    "monomial_max": "filters",
    "FiniteLattice": "lattice",
    "LatticeError": "lattice",
    "MultiplierAlgebra": "multipliers",
    "all_multipliers": "multipliers",
    "compose": "multipliers",
    "constant_one": "multipliers",
    "fixpoints": "multipliers",
    "identity_map": "multipliers",
    "is_multiplier": "multipliers",
    "join_translation": "multipliers",
    "kernel": "multipliers",
    "multiplier_calculus_report": "multipliers",
    "pointwise_imp": "multipliers",
    "pointwise_meet": "multipliers",
    "search_multipliers": "multipliers",
    "translation": "multipliers",
    "CheckResult": "report",
    "ReportBuilder": "report",
    "VerificationReport": "report",
    "Structures": "structures",
}

# ``from hilbertalg import *`` also imports and binds each submodule that
# defines an exported name, as it did when the package imported them eagerly
__all__ = [*_EXPORTS, *sorted(set(_EXPORTS.values()))]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
