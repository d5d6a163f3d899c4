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
Every element subset is an int bitmask, bit x set iff x is a member.

The re-checks that take O(n^3) steps run as byte kernels while every
element fits a byte (n <= 255): rows are ``bytes``, a gather through a
row is ``bytes.translate`` with the row padded to 256 bytes, and a test of
many instances at once is a bitmask test on ``int.from_bytes``.  So
``axiom_violations`` decides every axiom instance (``_holds``), and
``compatible_meet_table`` the candidates of a whole row.  A table the
kernel rejects, and any table of more than 255 elements, goes to the loop
over single instances, which reports the failure: ``_listed_violations``
lists the failed instances and ``_compatible_meets_by_pair`` raises the
violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .lattice import bits, bound_table, masks, refine


class MalformedTableError(ValueError):
    """The input is not a square table of in-range element indices."""


class InvariantViolation(RuntimeError):
    """A fact that holds in every valid algebra failed to hold."""


@dataclass(frozen=True)
class Violation:
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

        For each x, the common lower bounds c of x and y with x <= y -> c,
        over all (y, c) at once, are byte lanes: c <= x repeats one column
        of the order, c <= y is the transposed order, and x <= y -> c
        translates the table through row x of the order.  They must be
        exactly the meet of each pair that the meet makes compatible.  With
        more than 255 elements, or where they are not, the pairs are
        scanned one by one, which raises the violation.
        """
        n, meet = self.n, self.meet_table
        if n > 255:
            return self._compatible_meets_by_pair()
        imp = self.imp
        flat = b"".join(map(bytes, imp))
        leq = flat.translate(bytes(self.one) + b"\1" + bytes(255 - self.one))
        # below[y * n + c]: c <= y
        below = b"".join([leq[c::n] for c in range(n)])
        lower = int.from_bytes(below, "little")
        pad = bytes(256 - n)
        onehot = {None: bytes(n)}
        onehot.update((c, bytes(c) + b"\1" + bytes(n - 1 - c)) for c in range(n))
        rows = []
        for x, meet_x in enumerate(meet):
            leq_x = leq[x * n : x * n + n]
            found = (
                int.from_bytes(below[x * n : x * n + n] * n, "little")
                & lower
                & int.from_bytes(flat.translate(leq_x + pad), "little")
            )
            row = tuple(
                [c if c is not None and leq_x[imp[y][c]] else None for y, c in enumerate(meet_x)]
            )
            if found != int.from_bytes(b"".join(map(onehot.__getitem__, row)), "little"):
                return self._compatible_meets_by_pair()
            rows.append(row)
        return tuple(rows)

    def _compatible_meets_by_pair(self):
        """``compatible_meet_table`` pair by pair, raising ``InvariantViolation`` for
        two compatible meets or one that differs from the meet."""
        leq, imp, meet, rng = self.leq, self.imp, self.meet_table, self.elements
        down = masks(tuple(zip(*leq)))

        def compatible(x, y):
            # the common lower bounds c, lowest first, with x <= y -> c
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
        """preimages[x][v]: the bitmask of the y with x -> y = v."""
        rng = self.elements
        return tuple(tuple(sum(1 << y for y in rng if row[y] == v) for v in rng) for row in self.imp)

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


def _holds(rows, one):
    """Whether the checked table of rows (at most 255 of them) has no failed axiom instance.

    Every instance of every law is decided on whole rows as ``bytes``.  With
    ``luts[b]`` row b padded to a 256-byte lookup, ``flat.translate(luts[b])``
    is b -> (a -> z) at a * n + z for all a, z at once; joined over b it is
    the left side x -> (y -> z) of every exchange instance.  The order's
    up-sets are n-bit masks, read off the flat table in one ``int`` parse,
    and one pass over the pairs t < s checks antisymmetry and transitivity.
    The order then embeds in bit codes: code(a) holds the s <= a that are
    not the join of the elements below them, and a <= b iff code(a) is
    within code(b), as a minimal element of down(a) outside down(b) is such
    an s.  Exchange compares the codes of both sides in byte lanes, eight
    code bits a plane, one ``int.from_bytes`` per side and plane.
    """
    n = len(rows)
    rb = list(map(bytes, rows))
    flat = b"".join(rb)
    ones = bytes((one,)) * n
    if flat[:: n + 1] != ones or flat[one::n] != ones:
        return False  # reflexivity, top
    pad = bytes(256 - n)
    luts = [r + pad for r in rb]
    through = [flat.translate(lut) for lut in luts]
    # x -> (y -> x) is through[x] at y * n + x
    if b"".join([t[x::n] for x, t in enumerate(through)]) != ones * n:
        return False  # weakening
    leq = flat.translate(bytes(one) + b"\1" + bytes(255 - one))
    # bit x * n + y of the parsed matrix is x <= y
    matrix = int(leq.translate(b"01" + bytes(254))[::-1], 2)
    full = (1 << n) - 1
    up = [matrix >> i & full for i in range(0, n * n, n)]
    # bounds[s]: the common upper bounds of the elements below s
    bounds = [full] * n
    for t, u in enumerate(up):
        above = u ^ 1 << t
        w = above
        while w:
            low = w & -w
            s = low.bit_length() - 1
            if up[s] & ~above:
                return False  # antisymmetry or transitivity
            bounds[s] &= u
            w ^= low
    # planes[k]: bit j of byte a set iff the (8k + j)-th code element is <= a
    planes = []
    j = 0
    for s, (u, b) in enumerate(zip(up, bounds)):
        if b & ~u:
            if not j & 7:
                planes.append(0)
            planes[-1] |= int.from_bytes(leq[s * n : s * n + n], "little") << (j & 7)
            j += 1
    # x -> (y -> z) <= (x -> y) -> (x -> z), with the right side row y of
    # block x being x -> z for all z translated through row x -> y
    lhs = b"".join(through)
    rhs = b"".join([r.translate(luts[v]) for r in rb for v in r])
    for plane in planes:
        code = plane.to_bytes(n, "little") + pad
        if int.from_bytes(lhs.translate(code), "little") & ~int.from_bytes(
            rhs.translate(code), "little"
        ):
            return False  # exchange
    return True


def axiom_violations(table, one):
    """Every failed axiom instance of the table, in a deterministic order.

    Structurally bad input raises ``MalformedTableError``, which is a
    different condition from a well-formed table failing the axioms.
    Violations are reported exhaustively rather than fail-fast so that the
    list can be consumed as a search/scoring oracle.  ``_holds`` decides
    every instance at once; a table it rejects, or one of more than 255
    elements, is listed instance by instance.
    """
    imp = _checked_table(table, one)
    if len(imp) <= 255 and _holds(imp, one):
        return []
    return _listed_violations(imp, one)


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
    return (s.bit_count(), list(bits(s)))


def is_relative_subsemilattice(alg, members):
    """True iff members is closed under existing compatible meets."""
    for x in bits(members):
        for y in bits(members):
            m = compatible_meet(alg, x, y)
            if m is not None and not members >> m & 1:
                return False
    return True


@dataclass(frozen=True)
class AlgebraClass:
    implication_algebra: bool
    implicative_semilattice: bool


def classify(alg):
    """Flags: the commutativity law, and totality of compatible meets."""
    imp = alg.imp
    commutative = all(imp[imp[x][y]][x] == x for x in alg.elements for y in alg.elements)
    semilattice = all(None not in row for row in alg.compatible_meet_table)
    return AlgebraClass(commutative, semilattice)
