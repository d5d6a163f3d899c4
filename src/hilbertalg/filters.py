"""Filters, the filter lattice, filter congruences, and monomial filters.

Filters and congruence classes are int bitmasks, bit x set iff x is a
member.  The join of filters j and k is ``fl.join(j, k)``, the filter
``fl.closure(j | k)``, and a ``FilterLattice`` fl closes each seed once.
The filter lattice is a ``multipliers.CarrierLattice``, the same re-checked
carrier lattice as the closure endomorphism lattice, which it contains
(by kernels) as the monomial filters.  Under reverse inclusion it is also
the minimal Brouwerian extension of the algebra, which ``principal``
embeds; ``adjoint.minimal_brouwerian_extension`` re-checks that.

``class_of`` and ``monomial_max`` are mask kernels: the congruence class
of a is the union of ``preimages[a][v]`` and of ``sources[a][v]`` over the
members v, intersected, and its greatest elements are the members inside
the up-set of every member.  ``is_filter`` and ``filter_generated`` read
``preimages`` the same way.
"""

from __future__ import annotations

from operator import and_

from .core import InvariantViolation, generated, subset_key
from .lattice import bits, inclusion_order, masks
from .multipliers import CarrierLattice


def is_filter(alg, members):
    """True iff members contains the unit and is closed under detachment."""
    if not members >> alg.one & 1:
        return False
    pre = alg.preimages
    # every y with x -> y = v for members x and v is a member
    return not any(pre[x][v] & ~members for x in bits(members) for v in bits(members))


def filter_generated(alg, seed):
    """Least filter including the bitmask seed: each round adds every y with
    x -> y = v for members x and v, until a round adds nothing."""
    pre, rng = alg.preimages, alg.elements
    members = seed | 1 << alg.one
    while True:
        elems = [x for x in rng if members >> x & 1]
        grown = members
        for x in elems:
            pre_x = pre[x]
            for v in elems:
                grown |= pre_x[v]
        if grown == members:
            return members
        members = grown


class _Closures(dict):
    """Memo from a seed bitmask to ``filter_generated(alg, seed)``.

    Once ``rechecked``, each seed is re-checked to lie in its filter as it
    is first closed; ``FilterLattice`` re-checks the seeds closed before.
    """

    def __init__(self, alg):
        super().__init__()
        self.alg = alg
        self.rechecked = False

    def __missing__(self, seed):
        self[seed] = members = filter_generated(self.alg, seed)
        if self.rechecked:
            _check_holds(seed, members)
        return members


def _check_holds(seed, members):
    if seed & ~members:
        raise InvariantViolation(f"filters: closure {members} of {seed} does not hold it")


class FilterLattice(CarrierLattice):
    """All filters of an algebra, ordered by inclusion.

    The carrier is found by closing the least filter under joins with
    principal filters, which reaches every filter without scanning all
    2^n subsets.  ``CarrierLattice`` re-checks the structural facts every
    filter lattice has: bounds {1} and the universe, meet = intersection,
    join = generated union, and distributivity.  ``closure(seed)`` is
    ``filter_generated(alg, seed)``, run once per seed; ``join(j, k)`` is
    ``closure(j | k)``.  After the lattice, construction re-checks that
    each seed closed so far lies in its closure, that every member of the
    carrier is a filter (``is_filter``), and that the principal filter of
    x is the up-set of x, as x <= y -> z and x <= y give x <= z; a seed
    closed later is re-checked when it is closed.
    """

    def __init__(self, alg):
        self.alg = alg
        closures = _Closures(alg)
        self.closure = closures.__getitem__
        principal = [self.closure(1 << x) for x in alg.elements]
        least, universe = 1 << alg.one, (1 << alg.n) - 1
        found = generated(least, principal, self.join)
        ops = ((self.join, "generated union"), (and_, "intersection"))
        carrier = sorted(found, key=subset_key)
        super().__init__(carrier, inclusion_order, ops, least, universe, "filters")
        for x, p in zip(alg.elements, principal):
            if p not in self._index:
                raise InvariantViolation(f"filters: principal filter of {x} is not in the carrier: {p}")
        # after the lattice re-checks, so that those keep reporting the faults they catch
        for seed, members in closures.items():
            _check_holds(seed, members)
        closures.rechecked = True
        for members in carrier:
            if not is_filter(alg, members):
                raise InvariantViolation(f"filters: {members} is not a filter")
        for x, p, u in zip(alg.elements, principal, masks(alg.leq)):
            if p != u:
                raise InvariantViolation(f"filters: principal filter of {x} is {p}, not its up-set {u}")
        # principal[x]: the index of the principal filter of x; x -> principal[x] embeds the algebra
        self.principal = tuple(map(self.index, principal))

    def join(self, j, k):
        return self.closure(j | k)


def all_filters(alg):
    return FilterLattice(alg)


def class_of(alg, members, a):
    """Congruence class of a modulo the filter: both implications land in it.

    The b with a -> b in the filter are the union of ``preimages[a][v]``,
    and the b with b -> a in it the union of ``sources[a][v]``, over the
    members v.
    """
    row, col = alg.preimages[a], alg.sources[a]
    to = back = 0
    for v in bits(members):
        to |= row[v]
        back |= col[v]
    return to & back


def monomial_max(alg, members, a):
    """Greatest element of the congruence class of a, or None.

    The greatest elements are the members of the class inside the up-set
    ``preimages[x][one]`` of every member x.  On a valid algebra a greatest
    element is automatically unique; several maximal candidates can only
    appear on broken tables and also yield None.
    """
    cls = tops = class_of(alg, members, a)
    pre, one = alg.preimages, alg.one
    for x in bits(cls):
        tops &= pre[x][one]
    if tops and not tops & (tops - 1):
        return tops.bit_length() - 1
    return None


def is_monomial(alg, members):
    """True iff every congruence class of the filter has a greatest element."""
    return all(monomial_max(alg, members, a) is not None for a in alg.elements)
