"""The derived structures of one algebra, each built at most once, on first use.

Every suite relates the same few structures of an algebra, so the suites run
on one algebra share one ``Structures`` context.  The cache is not kept on
``FiniteHilbertAlgebra``: catalog entries keep their algebras, and would then
keep every structure of a whole catalog alive.  Only tables of n x n entries,
the size of the implication table itself (the order, the meet, join and
compatible meet tables, and ``preimages``), are cached on the algebra.
``adjoint`` is the closure endomorphism lattice ``ce`` itself, once
re-checked as the adjoint semilattice, and ``extension`` is the filter
lattice ``filters`` itself, once re-checked as the minimal Brouwerian
extension.  The element subsets the suites relate, as int bitmasks, are
computed once too: ``ce.kernels``, ``ce.fixes`` and ``monomials``.  Every
filter join the suites re-check is ``filters.join(j, k)``, and ``filters``
closes each seed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .adjoint import adjoint_semilattice, minimal_brouwerian_extension
from .closure import (
    all_closure_endos,
    finitely_generated_ce,
    search_endomorphisms,
    special_closure_retracts,
    special_subsets,
)
from .core import FiniteHilbertAlgebra, classify
from .filters import all_filters, is_monomial
from .multipliers import all_multipliers


@dataclass(frozen=True)
class Structures:
    """Lazily built, read-only structures of ``alg``."""

    alg: FiniteHilbertAlgebra

    @cached_property
    def flags(self):
        return classify(self.alg)

    @cached_property
    def multipliers(self):
        return all_multipliers(self.alg)

    @cached_property
    def ce(self):
        """The closure endomorphism lattice, cut out of ``multipliers``."""
        return all_closure_endos(self.alg, self.multipliers)

    @cached_property
    def filters(self):
        return all_filters(self.alg)

    @cached_property
    def monomials(self):
        """The monomial filters, smallest first."""
        return tuple(j for j in self.filters.carrier if is_monomial(self.alg, j))

    @cached_property
    def endomorphisms(self):
        return search_endomorphisms(self.alg)

    @cached_property
    def finitely_generated(self):
        return finitely_generated_ce(self.alg)

    @cached_property
    def special_subsets(self):
        return special_subsets(self.alg)

    @cached_property
    def retracts(self):
        """The special closure retracts, smallest first."""
        return special_closure_retracts(self.alg, self.special_subsets)

    @cached_property
    def adjoint(self):
        """``ce``, re-checked as the adjoint semilattice."""
        return adjoint_semilattice(self.ce, self.finitely_generated)

    @cached_property
    def extension(self):
        """``filters``, re-checked as the minimal Brouwerian extension."""
        return minimal_brouwerian_extension(self.filters)
