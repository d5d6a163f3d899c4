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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


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
        self.one = one

    @cached_property
    def leq(self):
        one = self.one
        return tuple(tuple(v == one for v in row) for row in self.imp)

    def le(self, x, y):
        return self.imp[x][y] == self.one

    @property
    def elements(self):
        return range(self.n)

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
    imp = _checked_table(table, one)
    n = len(imp)
    rng = range(n)
    out = []
    for x in rng:
        if imp[x][x] != one:
            out.append(Violation("reflexivity", (x,)))
        if imp[x][one] != one:
            out.append(Violation("top", (x,)))
    for x in rng:
        for y in rng:
            if x < y and imp[x][y] == one and imp[y][x] == one:
                out.append(Violation("antisymmetry", (x, y)))
            if imp[x][imp[y][x]] != one:
                out.append(Violation("weakening", (x, y)))
    for x in rng:
        for y in rng:
            if imp[x][y] != one:
                continue
            for z in rng:
                if imp[y][z] == one and imp[x][z] != one:
                    out.append(Violation("transitivity", (x, y, z)))
    for x in rng:
        for y in rng:
            for z in rng:
                lhs = imp[x][imp[y][z]]
                rhs = imp[imp[x][y]][imp[x][z]]
                if imp[lhs][rhs] != one:
                    out.append(Violation("exchange", (x, y, z)))
    return out


def validate_hilbert(table, one):
    """The algebra for the table, or ``HilbertAxiomError`` listing every violation."""
    bad = axiom_violations(table, one)
    if bad:
        raise HilbertAxiomError(bad)
    return FiniteHilbertAlgebra(table, one)


def natural_order(alg):
    """Boolean matrix of the natural order: ``leq[x][y]`` iff ``x -> y = 1``."""
    return alg.leq


def partial_meet(alg, x, y):
    """Greatest lower bound of x and y, or None if the pair has no meet."""
    leq = alg.leq
    lower = [c for c in alg.elements if leq[c][x] and leq[c][y]]
    for m in lower:
        if all(leq[c][m] for c in lower):
            return m
    return None


def partial_join(alg, x, y):
    """Least upper bound of x and y, or None if the pair has no join."""
    leq = alg.leq
    upper = [c for c in alg.elements if leq[x][c] and leq[y][c]]
    for j in upper:
        if all(leq[j][c] for c in upper):
            return j
    return None


def compatible_meet(alg, x, y):
    """The compatible meet of x and y, or None.

    x and y are compatible when some common lower bound c satisfies
    x <= y -> c.  Such a c is automatically the meet of the pair, so there
    is at most one; both facts are asserted rather than assumed.
    """
    leq, imp = alg.leq, alg.imp
    found = None
    for c in alg.elements:
        if leq[c][x] and leq[c][y] and leq[x][imp[y][c]]:
            if found is not None and found != c:
                raise InvariantViolation(
                    f"two compatible meets for ({x}, {y}): {found} and {c}"
                )
            found = c
    if found is not None and found != partial_meet(alg, x, y):
        raise InvariantViolation(
            f"compatible meet {found} of ({x}, {y}) differs from the meet"
        )
    return found


def is_compatible(alg, x, y):
    return compatible_meet(alg, x, y) is not None


def is_subalgebra(alg, members):
    """True iff members contains the unit and is closed under implication."""
    if alg.one not in members:
        return False
    imp = alg.imp
    return all(imp[x][y] in members for x in members for y in members)


def subsets(n):
    """Every subset of range(n) as a frozenset, in binary counting order."""
    return (frozenset(i for i in range(n) if bits >> i & 1) for bits in range(1 << n))


def subset_key(s):
    """Sort key listing element subsets smallest first."""
    return (len(s), sorted(s))


def subalgebras(alg):
    """All subalgebras, smallest first."""
    return sorted((s for s in subsets(alg.n) if is_subalgebra(alg, s)), key=subset_key)


def is_relative_subsemilattice(alg, members):
    """True iff members is closed under existing compatible meets."""
    for x in members:
        for y in members:
            m = compatible_meet(alg, x, y)
            if m is not None and m not in members:
                return False
    return True


def block_from(alg, members, p):
    """The image set ``{x -> p : x in members}``."""
    imp = alg.imp
    return frozenset(imp[x][p] for x in members)


def is_block(alg, members):
    """True iff members is a subalgebra that is a bounded implication algebra.

    Bounded means a least element under the inherited order; the implication
    algebra law is ``(x -> y) -> x = x`` for all members.
    """
    if not members or not is_subalgebra(alg, members):
        return False
    imp, leq = alg.imp, alg.leq
    if any(imp[imp[x][y]][x] != x for x in members for y in members):
        return False
    return any(all(leq[m][b] for b in members) for m in members)


@dataclass(frozen=True)
class AlgebraClass:
    implication_algebra: bool
    implicative_semilattice: bool


def classify(alg):
    """Flags: the commutativity law, and totality of compatible meets."""
    imp = alg.imp
    commutative = all(
        imp[imp[x][y]][x] == x for x in alg.elements for y in alg.elements
    )
    semilattice = all(
        is_compatible(alg, x, y) for x in alg.elements for y in alg.elements
    )
    return AlgebraClass(commutative, semilattice)
