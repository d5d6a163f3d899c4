"""Finite Hilbert algebras presented as implication tables.

An algebra is a square table over indices ``0..n-1`` together with a
designated unit: ``imp[x][y]`` is the element ``x -> y``, and the natural
order is ``x <= y  iff  x -> y = 1``.  The validator accepts exactly the
tables for which that relation is a partial order with the unit on top and
the weakening and exchange laws hold:

    x <= y -> x,        x -> (y -> z)  <=  (x -> y) -> (x -> z).

The order-defining law is deliberately taken in the form
``x -> y = 1 iff x <= y``; the variant with ``x <= 1`` on the right side is
vacuous and is not used.  Antisymmetry is checked explicitly because a raw
table may satisfy both inequality laws while inducing only a preorder.

Meets, joins and compatible meets are tables of the algebra, each built
once, on first use, from the up- and down-sets of the order as bitmasks;
``partial_meet``, ``partial_join`` and ``compatible_meet`` look them up.
Every element subset is an int bitmask, bit x set iff x is a member.  The
algebra also keeps, on first use, the mask tables ``preimages`` and
``sources`` of its rows and columns, ``compatible_meet_pairs``, and, while
n <= 255, its table as ``flat`` bytes and its rows as 256-byte ``luts``:
the kernels of ``filters``, ``closure`` and ``multipliers`` read them.

The two re-checks that take O(n^3) steps are plain loops over single
instances: ``axiom_violations`` lists every failed axiom instance, and
``compatible_meet_table`` raises ``InvariantViolation`` at the first pair
that breaks the law.  Each runs once per search class, per algebra and
per distinct multiplier table: 194 axiom checks and 99 compatible meet
tables for the whole size-6 enumeration, too few for a byte kernel to
pay for its code.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .lattice import bits, bound_table, masks, refine


class MalformedTableError(ValueError):
    """The input is not a square table of in-range element indices."""


class InvariantViolation(RuntimeError):
    """A fact that holds in every valid algebra failed to hold."""


class Violation(NamedTuple):
    """One failed axiom instance; ``elements`` are the witnessing indices."""

    axiom: str
    elements: tuple[int, ...]

    def render(self, labels=None):
        names = [labels[e] if labels else str(e) for e in self.elements]
        return f"{self.axiom}: ({', '.join(names)})"


class HilbertAxiomError(ValueError):
    """A well-formed table that is not a Hilbert algebra."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        shown = ", ".join(v.render() for v in self.violations[:3])
        more = "" if len(self.violations) <= 3 else f" (+{len(self.violations) - 3} more)"
        super().__init__(f"not a Hilbert algebra: {shown}{more}")


def _checked_table(table, one):
    rows = tuple(tuple(row) for row in table)
    n = len(rows)
    if n == 0:
        raise MalformedTableError("empty table")
    for row in rows:
        if len(row) != n:
            raise MalformedTableError(f"row of length {len(row)} in a table of size {n}")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise MalformedTableError(f"entry {v!r} out of range 0..{n - 1}")
    if not isinstance(one, int) or isinstance(one, bool) or not 0 <= one < n:
        raise MalformedTableError(f"unit index {one!r} out of range 0..{n - 1}")
    return rows


class FiniteHilbertAlgebra:
    """An implication table with a designated unit element.

    The constructor checks shape and index range only.  Axiom checking is
    the job of ``validate_hilbert`` / ``axiom_violations``, so deliberately
    broken tables can still be constructed and probed.  Instances are
    immutable and safely shareable.
    """

    def __init__(self, table, one):
        self.imp = _checked_table(table, one)
        self.n = len(self.imp)
        self.elements = range(self.n)
        self.one = one

    @classmethod
    def _of_checked(cls, rows, one):
        """The algebra of rows that ``_checked_table`` has accepted, not checked again."""
        alg = cls.__new__(cls)
        alg.imp, alg.n, alg.elements, alg.one = rows, len(rows), range(len(rows)), one
        return alg

    @cached_property
    def leq(self):
        one = self.one
        return tuple(tuple(v == one for v in row) for row in self.imp)

    @cached_property
    def meet_table(self):
        """meet_table[x][y]: the greatest lower bound of x and y, or None."""
        return bound_table(self.leq, upper=False)

    @cached_property
    def join_table(self):
        """join_table[x][y]: the least upper bound of x and y, or None."""
        return bound_table(self.leq, upper=True)

    @cached_property
    def compatible_meet_table(self):
        """compatible_meet_table[x][y]: the compatible meet of x and y, or None.

        Scanned pair by pair: the common lower bounds c of x and y with
        x <= y -> c, lowest first.  Two of them, or one that differs from
        the meet, raise ``InvariantViolation``.
        """
        leq, imp, meet, rng = self.leq, self.imp, self.meet_table, self.elements
        down = masks(tuple(zip(*leq)))

        def compatible(x, y):
            imp_y, leq_x = imp[y], leq[x]
            found = [c for c in bits(down[x] & down[y]) if leq_x[imp_y[c]]]
            if len(found) > 1:
                raise InvariantViolation(
                    f"two compatible meets for ({x}, {y}): {found[0]} and {found[1]}"
                )
            if found and found[0] != meet[x][y]:
                raise InvariantViolation(
                    f"compatible meet {found[0]} of ({x}, {y}) differs from the meet"
                )
            return found[0] if found else None

        return tuple(tuple(compatible(x, y) for y in rng) for x in rng)

    @cached_property
    def preimages(self):
        """preimages[x][v]: the bitmask of the y with x -> y = v; ``preimages[x][one]`` is the up-set of x."""
        rng = self.elements
        return tuple(tuple(sum(1 << y for y in rng if row[y] == v) for v in rng) for row in self.imp)

    @cached_property
    def sources(self):
        """sources[y][v]: the bitmask of the x with x -> y = v; ``sources[y][one]`` is the down-set of y."""
        rng, imp = self.elements, self.imp
        return tuple(tuple(sum(1 << x for x in rng if imp[x][y] == v) for v in rng) for y in rng)

    @cached_property
    def flat(self):
        """The table as n * n ``bytes``, x -> y at byte x * n + y; for n <= 255 only."""
        return b"".join(map(bytes, self.imp))

    @cached_property
    def luts(self):
        """Each row as ``bytes`` padded to 256, so that ``b.translate(luts[x])``
        reads x -> v for each byte v < n of b; for n <= 255 only."""
        pad = bytes(256 - self.n)
        return tuple(bytes(row) + pad for row in self.imp)

    @cached_property
    def compatible_meet_pairs(self):
        """compatible_meet_pairs[m]: the bitmask of the pairs (x, y), bit x * n + y,
        whose compatible meet is m; n masks of n * n bits, as many bits as ``preimages``."""
        n = self.n
        pairs = [0] * n
        for x, row in enumerate(self.compatible_meet_table):
            for y, m in enumerate(row):
                if m is not None:
                    pairs[m] |= 1 << (x * n + y)
        return tuple(pairs)

    @cached_property
    def colors(self):
        """The colouring of ``imp`` with the unit marked, computed once."""
        return refine(self.imp, (self.one,))

    def le(self, x, y):
        return self.imp[x][y] == self.one

    def __eq__(self, other):
        return (
            isinstance(other, FiniteHilbertAlgebra)
            and self.imp == other.imp
            and self.one == other.one
        )

    def __hash__(self):
        return hash((self.imp, self.one))

    def __repr__(self):
        return f"FiniteHilbertAlgebra(n={self.n}, one={self.one})"


def axiom_violations(table, one):
    """Every failed axiom instance of the table, in a deterministic order.

    Structurally bad input raises ``MalformedTableError``, which is a
    different condition from a well-formed table failing the axioms.
    Violations are reported exhaustively rather than fail-fast so that the
    list can be consumed as a search/scoring oracle.
    """
    return _listed_violations(_checked_table(table, one), one)


def _listed_violations(imp, one):
    """The failed axiom instances of a checked table, one loop per law."""
    n = len(imp)
    rng = range(n)
    out = []
    for x in rng:
        if imp[x][x] != one:
            out.append(Violation("reflexivity", (x,)))
        if imp[x][one] != one:
            out.append(Violation("top", (x,)))
    # rows are looked up once per x and per (x, y), outside the inner loops
    for x in rng:
        imp_x = imp[x]
        for y in rng:
            if x < y and imp_x[y] == one and imp[y][x] == one:
                out.append(Violation("antisymmetry", (x, y)))
            if imp_x[imp[y][x]] != one:
                out.append(Violation("weakening", (x, y)))
    for x in rng:
        imp_x = imp[x]
        for y in rng:
            if imp_x[y] != one:
                continue
            imp_y = imp[y]
            for z in rng:
                if imp_y[z] == one and imp_x[z] != one:
                    out.append(Violation("transitivity", (x, y, z)))
    for x in rng:
        imp_x = imp[x]
        for y in rng:
            imp_y, imp_xy = imp[y], imp[imp_x[y]]
            for z in rng:
                # x -> (y -> z) <= (x -> y) -> (x -> z)
                if imp[imp_x[imp_y[z]]][imp_xy[imp_x[z]]] != one:
                    out.append(Violation("exchange", (x, y, z)))
    return out


def validate_hilbert(table, one):
    """The algebra for the table, or ``HilbertAxiomError`` listing every violation."""
    rows = tuple(map(tuple, table))
    bad = axiom_violations(rows, one)  # checks the shape of rows, once
    if bad:
        raise HilbertAxiomError(bad)
    return FiniteHilbertAlgebra._of_checked(rows, one)


def partial_meet(alg, x, y):
    """Greatest lower bound of x and y, or None if the pair has no meet."""
    return alg.meet_table[x][y]


def partial_join(alg, x, y):
    """Least upper bound of x and y, or None if the pair has no join."""
    return alg.join_table[x][y]


def compatible_meet(alg, x, y):
    """The compatible meet of x and y, or None.

    x and y are compatible when some common lower bound c satisfies
    x <= y -> c.  Such a c is automatically the meet of the pair, so there
    is at most one; both facts are asserted rather than assumed, for every
    pair at once, when the algebra's ``compatible_meet_table`` is built.
    """
    return alg.compatible_meet_table[x][y]


def is_subalgebra(alg, members):
    """True iff members contains the unit and is closed under implication."""
    if not members >> alg.one & 1:
        return False
    imp = alg.imp
    return all(members >> imp[x][y] & 1 for x in bits(members) for y in bits(members))


def subsets(n):
    """Every subset of range(n) as a bitmask, in binary counting order."""
    return range(1 << n)


def generated(start, gens, op):
    """The set of values reachable from start by steps v -> op(v, g), g in gens."""
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = op(v, g)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def subset_key(s):
    """Sort key listing element subsets smallest first."""
    return (s.bit_count(), bits(s))


def is_relative_subsemilattice(alg, members):
    """True iff members is closed under existing compatible meets."""
    for x in bits(members):
        for y in bits(members):
            m = compatible_meet(alg, x, y)
            if m is not None and not members >> m & 1:
                return False
    return True


class AlgebraClass(NamedTuple):
    implication_algebra: bool
    implicative_semilattice: bool


def classify(alg):
    """Flags: the commutativity law, and totality of compatible meets."""
    imp = alg.imp
    commutative = all(imp[imp[x][y]][x] == x for x in alg.elements for y in alg.elements)
    semilattice = all(None not in row for row in alg.compatible_meet_table)
    return AlgebraClass(commutative, semilattice)
