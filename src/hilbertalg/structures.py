"""The derived structures of one algebra, each built at most once, on first use.

Every suite relates the same few structures of an algebra, so the suites run
on one algebra share one ``Structures`` context.  The cache is not kept on
``FiniteHilbertAlgebra``: catalog entries keep their algebras, and would then
keep every structure of a whole catalog alive.  Only tables of n x n entries,
the size of the implication table itself (the order, the meet, join and
compatible meet tables, ``preimages`` and ``sources``, the rows as ``bytes``
and ``compatible_meet_pairs``), are cached on the algebra.
``adjoint`` is the closure endomorphism lattice ``ce`` itself, once
re-checked as the adjoint semilattice, and ``extension`` is the filter
lattice ``filters`` itself, once re-checked as the minimal Brouwerian
extension.  The element subsets the suites relate, as int bitmasks, are
computed once too: ``ce.kernels``, ``ce.fixes`` and ``monomials``.  Every
filter join the suites re-check is ``filters.join(j, k)``, and ``filters``
closes each seed once.

The three correspondences of the closure endomorphism lattice are shared
the same way, each result computed on first use and kept here, never in a
module: ``monomial_ce`` builds the closure endomorphism of each filter, or
keeps the ``NonMonomialFilterError`` it raises; ``retract_ce`` builds that
of each special closure retract; and ``cross_meets`` joins each pair of
fixpoint sets.  ``special_witnesses``, the specialness witness of every
subset, serves ``special_subsets``, ``retract_ce`` and the suites.  So the
re-checks inside ``ce_from_monomial_filter`` and ``ce_from_retract`` run
once for each filter or retract, however many suites read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

from .adjoint import adjoint_semilattice, minimal_brouwerian_extension
from .closure import (
    NonMonomialFilterError,
    all_closure_endos,
    ce_from_monomial_filter,
    ce_of_special_retract,
    cross_meets,
    finitely_generated_ce,
    search_endomorphisms,
    special_closure_retracts,
    special_witnesses,
)
from .core import FiniteHilbertAlgebra, classify
from .filters import all_filters, is_monomial
from .multipliers import all_multipliers


class _Memo(dict):
    """``fn(*args)`` for each args it is called with, computed once; an
    exception of the types ``keep`` is kept too, and raised again."""

    def __init__(self, fn, keep=()):
        super().__init__()
        self.fn, self.keep = fn, keep

    def __missing__(self, args):
        try:
            self[args] = value = self.fn(*args)
        except self.keep as err:
            self[args] = value = err
        return value

    def __call__(self, *args):
        value = self[args]
        if isinstance(value, BaseException):
            raise value
        return value


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
    def special_witnesses(self):
        """``special_witness`` of every subset, indexed by its bitmask."""
        return special_witnesses(self.alg)

    @cached_property
    def special_subsets(self):
        """Every special subset, the empty one included, in binary counting order."""
        return [s for s, pair in enumerate(self.special_witnesses) if pair is None]

    @cached_property
    def retracts(self):
        """The special closure retracts, smallest first."""
        return special_closure_retracts(self.alg, self.special_subsets)

    @cached_property
    def monomial_ce(self):
        """``monomial_ce(j)``: ``ce_from_monomial_filter`` of the filter j, or the
        ``NonMonomialFilterError`` it raised, raised again."""
        return _Memo(partial(ce_from_monomial_filter, self.alg), NonMonomialFilterError)

    @cached_property
    def retract_ce(self):
        """``retract_ce(r)``: ``ce_from_retract`` of r, with its witness read
        from ``special_witnesses``."""
        alg, witnesses = self.alg, self.special_witnesses
        return _Memo(lambda r: ce_of_special_retract(alg, r, witnesses[r]))

    @cached_property
    def cross_meets(self):
        """``cross_meets(s, t)``: the compatible meets of s x t, the join of fixpoint sets."""
        return _Memo(partial(cross_meets, self.alg))

    @cached_property
    def adjoint(self):
        """``ce``, re-checked as the adjoint semilattice."""
        return adjoint_semilattice(self.ce, self.finitely_generated)

    @cached_property
    def extension(self):
        """``filters``, re-checked as the minimal Brouwerian extension."""
        return minimal_brouwerian_extension(self.filters)
