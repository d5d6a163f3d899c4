"""Filters, the filter lattice, filter congruences, and monomial filters.

The filter lattice is a ``multipliers.CarrierLattice``, the same re-checked
carrier lattice as the closure endomorphism lattice, which it contains
(by kernels) as the monomial filters.  Under reverse inclusion it is also
the minimal Brouwerian extension of the algebra, which ``principal``
embeds; ``adjoint.minimal_brouwerian_extension`` re-checks that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import and_

from .core import InvariantViolation, generated, subset_key
from .lattice import inclusion_order
from .multipliers import CarrierLattice


def is_filter(alg, members):
    """True iff members contains the unit and is closed under detachment."""
    if alg.one not in members:
        return False
    imp = alg.imp
    for x in members:
        row = imp[x]
        for y in alg.elements:
            if row[y] in members and y not in members:
                return False
    return True


def is_filter_via_bounds(alg, members):
    """Equivalent test: nonempty, and x <= y -> z with x, y members forces z in."""
    if not members:
        return False
    leq, imp = alg.leq, alg.imp
    for x in members:
        for y in members:
            for z in alg.elements:
                if leq[x][imp[y][z]] and z not in members:
                    return False
    return True


def filter_generated(alg, seed):
    """Least filter including seed, computed as a detachment-closure fixpoint."""
    imp = alg.imp
    members = set(seed)
    members.add(alg.one)
    changed = True
    while changed:
        changed = False
        for x in tuple(members):
            row = imp[x]
            for y in alg.elements:
                if row[y] in members and y not in members:
                    members.add(y)
                    changed = True
    return frozenset(members)


def filter_join(alg, j, k):
    return filter_generated(alg, set(j) | set(k))


class FilterLattice(CarrierLattice):
    """All filters of an algebra, ordered by inclusion.

    The carrier is found by closing the least filter under joins with
    principal filters, which reaches every filter without scanning all
    2^n subsets.  ``CarrierLattice`` re-checks the structural facts every
    filter lattice has: bounds {1} and the universe, meet = intersection,
    join = generated union, and distributivity.
    """

    def __init__(self, alg):
        self.alg = alg
        join = partial(filter_join, alg)
        principal = [filter_generated(alg, [x]) for x in alg.elements]
        found = generated(frozenset([alg.one]), principal, join)
        ops = ((join, "generated union"), (and_, "intersection"))
        least, universe = frozenset([alg.one]), frozenset(alg.elements)
        carrier = sorted(found, key=subset_key)
        super().__init__(carrier, inclusion_order, ops, least, universe, "filters")
        # principal[x]: the index of the principal filter of x; x -> principal[x] embeds the algebra
        self.principal = tuple(map(self.index, principal))


def all_filters(alg):
    return FilterLattice(alg)


def class_of(alg, members, a):
    """Congruence class of a modulo the filter: both implications land in it."""
    imp = alg.imp
    return frozenset(
        b for b in alg.elements if imp[a][b] in members and imp[b][a] in members
    )


@dataclass(frozen=True)
class CongruenceClasses:
    filter: frozenset
    classes: tuple[frozenset, ...]


def congruence_classes(alg, members):
    """Partition of the universe by the filter congruence."""
    classes = []
    assigned = [False] * alg.n
    for a in alg.elements:
        if assigned[a]:
            continue
        cls = class_of(alg, members, a)
        if a not in cls:
            raise InvariantViolation(f"congruence class of {a} does not contain it")
        for b in cls:
            if assigned[b] or class_of(alg, members, b) != cls:
                raise InvariantViolation("congruence classes do not partition the universe")
            assigned[b] = True
        classes.append(cls)
    return CongruenceClasses(frozenset(members), tuple(classes))


def lower_set(alg, members, a):
    """The set of x with x -> a in the filter; an ideal of the algebra."""
    imp = alg.imp
    return frozenset(x for x in alg.elements if imp[x][a] in members)


def monomial_max(alg, members, a):
    """Greatest element of the congruence class of a, or None.

    On a valid algebra a greatest element is automatically unique; several
    maximal candidates can only appear on broken tables and also yield None.
    """
    cls = class_of(alg, members, a)
    leq = alg.leq
    tops = [m for m in cls if all(leq[x][m] for x in cls)]
    if len(tops) == 1:
        return tops[0]
    return None


def is_monomial(alg, members):
    """True iff every congruence class of the filter has a greatest element."""
    return all(monomial_max(alg, members, a) is not None for a in alg.elements)
