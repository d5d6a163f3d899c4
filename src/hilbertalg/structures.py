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
computed once too: ``ce.kernels``, ``ce.fixes`` and ``monomials``, the
filters ``monomial_ce`` does not reject, and so are the composites of
translations, ``finitely_generated``: the indices ``core.joins`` reaches
from the identity by ``ce.translations`` in ``ce.lattice.join_table``.
Every filter join the suites re-check is ``filters.join(j, k)``, and
``filters`` closes each seed once.

The three correspondences of the closure endomorphism lattice are shared
the same way, each a ``functools.cache`` built per ``Structures``, never in
a module: ``monomial_ce`` builds the closure endomorphism of each filter;
``retract_ce`` builds that of each special closure retract; and
``cross_meets`` joins each pair of fixpoint sets.  ``cache`` keeps no
exception, so a ``NonMonomialFilterError``, ``NotClosureRetractError`` or
``NotSpecialError`` is raised afresh, with its own traceback, on every
call; no filter of a finite algebra raises the first, since each is
finitely generated and so monomial.  Specialness is never tabulated over
every subset: ``retracts`` hands ``retract_ce`` each union of translates
(they hold every special subset), and ``retract_ce`` tests specialness only
on the subsets that are closure retracts.
So the re-checks inside ``ce_from_monomial_filter`` and ``ce_from_retract``
run once for each filter or retract, however many suites read them, and so do
``monomial_max`` on each element and the least-above map of each retract:
``monomials`` and every class maximum a suite compares are read from
``monomial_ce``, and ``retracts`` and every least-above image from
``retract_ce``.

Two caches of derived structures live in a module, because what they keep
repeats across algebras: ``multipliers._order_lattice`` and
``multipliers._is_implication_algebra`` hold, for each distinct
index-level table of a multiplier algebra, the lattice of its pointwise
order matrix or the verdict on its pointwise implication table, and no
algebra or map.  Those tables repeat across a catalog (4 and 4 among the
95 algebras of size 6, 7 and 7 among the 550 of size 7), so the caches are
bounded by the distinct tables a process meets.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from operator import or_

from .adjoint import adjoint_semilattice, minimal_brouwerian_extension
from .closure import (
    NonMonomialFilterError,
    NotClosureRetractError,
    NotSpecialError,
    all_closure_endos,
    ce_from_monomial_filter,
    ce_from_retract,
    cross_meets,
    search_endomorphisms,
)
from .core import classify, joins, subset_key
from .filters import all_filters
from .multipliers import all_multipliers


class Structures:
    """Lazily built, read-only structures of ``alg``."""

    def __init__(self, alg):
        self.alg = alg

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
        """The monomial filters, smallest first: those for which ``monomial_ce``
        does not raise ``NonMonomialFilterError``."""
        return tuple(j for j in self.filters.carrier if self._is_monomial(j))

    def _is_monomial(self, j):
        try:
            self.monomial_ce(j)
        except NonMonomialFilterError:
            return False
        return True

    @cached_property
    def endomorphisms(self):
        return search_endomorphisms(self.alg)

    @cached_property
    def finitely_generated(self):
        """The composites of translations, as ascending indices of ``ce``."""
        ce = self.ce
        return sorted(joins(ce.identity_index, ce.translations, lambda i, t: ce.lattice.join_table[i][t]))

    @cached_property
    def translate_unions(self):
        """Every union of ``translates``, the empty one included, in binary
        counting order; every special subset is one of them.

        A special S is closed under translations: for b in S and any q,
        specialness at a = q -> b gives a p with p -> b = b and
        p -> (q -> b) in S, and by exchange p -> (q -> b) = q -> (p -> b) = q -> b.
        As x = 1 -> x, S is the union of ``translates[x]`` over its members x.
        """
        return sorted(joins(0, self.alg.translates, or_))

    @cached_property
    def retracts(self):
        """The special closure retracts, smallest first: the unions of
        translates that ``retract_ce`` accepts."""
        return sorted(filter(self._is_retract, self.translate_unions), key=subset_key)

    def _is_retract(self, s):
        try:
            self.retract_ce(s)
        except (NotClosureRetractError, NotSpecialError):
            return False
        return True

    @cached_property
    def monomial_ce(self):
        """``monomial_ce(j)``: ``ce_from_monomial_filter`` of the filter j, built
        once; a ``NonMonomialFilterError`` is not kept, and is raised on every call."""
        return cache(partial(ce_from_monomial_filter, self.alg))

    @cached_property
    def retract_ce(self):
        """``retract_ce(r)``: ``ce_from_retract`` of r, built once; a
        ``NotClosureRetractError`` or ``NotSpecialError`` is not kept, and is
        raised on every call."""
        return cache(partial(ce_from_retract, self.alg))

    @cached_property
    def cross_meets(self):
        """``cross_meets(s, t)``: the compatible meets of s x t, the join of fixpoint sets."""
        return cache(partial(cross_meets, self.alg))

    @cached_property
    def adjoint(self):
        """``ce``, re-checked as the adjoint semilattice."""
        return adjoint_semilattice(self.ce, self.finitely_generated)

    @cached_property
    def extension(self):
        """``filters``, re-checked as the minimal Brouwerian extension."""
        return minimal_brouwerian_extension(self.filters)
