"""Finite lattices given by an order matrix, and isomorphism of finite operation tables.

Used as the uniform container for filter lattices, closure-endomorphism
lattices and ideal lattices.  ``refine`` and ``isomorphism`` serve every
isomorphism search of the package, and only the cross-survey runs one:
lattices compare their join tables (a bijection preserves joins exactly
when it preserves the order), and endomorphism monoids and algebras compare
their composition and implication tables with the identity or the unit
marked.  Colour refinement
splits the elements into classes no isomorphism can mix; an iterative
backtracking search then maps class onto class.

``bound_table`` looks the bound of each pair of a preorder up by its mask
of common bounds, and ``FiniteLattice.is_distributive`` compares both
sides of the law a slab of (j, k) at a time, as ``bytes.translate`` row
gathers while the lattice has at most 255 elements.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import compress
from operator import itemgetter, or_


class LatticeError(ValueError):
    pass


def masks(rows):
    """Each row of a square boolean matrix as an int, bit k set where the row is true at k."""
    powers = [1 << k for k in range(len(rows))]
    return [sum(compress(powers, row)) for row in rows]


def _members(mask):
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return tuple(found)


_BYTE_MEMBERS = tuple(map(_members, range(256)))


def bits(mask):
    """The indices of the set bits of mask, lowest first, as a tuple.

    Masks below 256, nearly every mask of an algebra of at most 8 elements,
    are read from a table.
    """
    return _BYTE_MEMBERS[mask] if mask < 256 else _members(mask)


def inclusion_order(sets):
    """The order matrix of a family of bitmask subsets under inclusion."""
    return [[not a & ~b for b in sets] for a in sets]


def _order_masks(leq):
    """(up, down), the bitmasks of the elements above and below each element,
    or None unless the order matrix is a partial order."""
    up, down = masks(leq), masks(tuple(zip(*leq)))
    # i is the one element both above and below i (reflexive, antisymmetric),
    # and everything above an element above i is above i (transitive)
    if all(u & d == 1 << i for i, (u, d) in enumerate(zip(up, down))) and _transitive(up, leq):
        return up, down
    return None


def _transitive(up, leq):
    """Whether each up[i] holds the up-sets of its members, read from row i of leq."""
    return not any(reduce(or_, compress(up, row), 0) & ~u for u, row in zip(up, leq))


def cover_pairs(leq):
    """Pairs (i, j), in row-major order, where j covers i in the order matrix.

    j covers i when the interval of elements above i and below j is {i, j}.
    """
    up, down = masks(leq), masks(tuple(zip(*leq)))
    return [
        (i, j)
        for i, u in enumerate(up)
        for j, d in enumerate(down)
        if i != j and u & d == 1 << i | 1 << j
    ]


class _Least(dict):
    """Memo from a bitmask of elements to its least member: the lowest k in the
    mask with the whole mask in ``beyond[k]``, or None."""

    def __init__(self, beyond):
        super().__init__()
        self.beyond = beyond

    def __missing__(self, common):
        beyond = self.beyond
        self[common] = k = next((k for k in bits(common) if not common & ~beyond[k]), None)
        return k


def bound_table(leq, upper):
    """For every pair (i, j) of the order matrix, the least upper bound or,
    with ``upper=False``, the greatest lower bound; None where there is none.

    The bound of a pair is the lowest k among its common bounds with all of
    them beyond k.  In a preorder those k are exactly the ones whose own
    bounds are the common ones, so each is a dict lookup of the mask;
    any other relation takes the least member of each mask from ``_Least``.
    """
    # beyond[i]: bitmask of the elements above i (below i when not upper)
    rel = leq if upper else tuple(zip(*leq))
    beyond = masks(rel)
    if all(b >> k & 1 for k, b in enumerate(beyond)) and _transitive(beyond, rel):
        return _preorder_bounds(beyond)
    least = _Least(beyond).__getitem__
    return tuple(tuple(map(least, map(b.__and__, beyond))) for b in beyond)


def _preorder_bounds(beyond):
    """``bound_table`` of a preorder given as the bitmasks ``beyond``."""
    # the lowest k with each mask of bounds, by overwriting from the top
    get = dict(zip(reversed(beyond), reversed(range(len(beyond))))).get
    return tuple(tuple(map(get, map(b.__and__, beyond))) for b in beyond)


def _rank(keys):
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return tuple(order[k] for k in keys)


def refine(table, marked=()):
    """Stable colouring of the elements of a binary operation table.

    Starts from (marked, idempotent) and splits classes by the multiset of
    products with every other element, both ways round, until nothing
    splits.  Isomorphic tables with corresponding marks get equal colours.
    """
    n = len(table)
    columns = list(zip(*table))
    colors = _rank([(i in marked, table[i][i] == i) for i in range(n)])

    def products(i, line):
        # each product p of i with j as (colour of j, colour of p, p == i, p == j), packed in an int
        keys = ((colors[j] * n + colors[p]) * 4 + 2 * (p == i) + (p == j) for j, p in enumerate(line))
        return tuple(sorted(keys))

    while True:
        refined = _rank(
            [(colors[i], products(i, table[i]), products(i, columns[i])) for i in range(n)]
        )
        if refined == colors:
            return colors
        colors = refined


def isomorphism(t1, c1, t2, c2):
    """A bijection f with f[t1[x][y]] == t2[f[x]][f[y]] for all x, y, or None.

    c1 and c2 are the tables' colourings from ``refine``; f maps each element
    to one of the same colour.  The depth-first search keeps its own stack
    of candidate iterators, so the table size is not bounded by the
    recursion limit, and a bijection is returned only once the whole table
    has been checked.
    """
    n = len(t1)
    if len(t2) != n or sorted(c1) != sorted(c2):
        return None
    candidates = [[j for j in range(n) if c2[j] == c1[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: (len(candidates[i]), i))
    fwd, back = [None] * n, [None] * n

    def consistent(placed):
        # products already fixed on either side must correspond
        i = placed[-1]
        j = fwd[i]
        for i2 in placed:
            j2 = fwd[i2]
            for a, b in ((t1[i][i2], t2[j][j2]), (t1[i2][i], t2[j2][j])):
                if c1[a] != c2[b] or fwd[a] not in (None, b) or back[b] not in (None, a):
                    return False
        return True

    stack = [iter(candidates[order[0]])]
    while stack:
        depth = len(stack)
        i = order[depth - 1]
        if fwd[i] is not None:
            back[fwd[i]] = None
            fwd[i] = None
        for j in stack[-1]:
            if back[j] is None:
                fwd[i], back[j] = j, i
                if consistent(order[:depth]):
                    break
                fwd[i], back[j] = None, None
        else:
            stack.pop()
            continue
        if depth < n:
            stack.append(iter(candidates[order[depth]]))
        elif all(fwd[t1[x][y]] == t2[fwd[x]][fwd[y]] for x in range(n) for y in range(n)):
            return fwd
    return None


class FiniteLattice:
    """A finite lattice presented by its order matrix.

    Construction fails with ``LatticeError`` unless the relation is a
    partial order in which every pair has a unique join and meet.
    """

    def __init__(self, leq):
        self.leq = tuple(tuple(map(bool, row)) for row in leq)
        self.size = len(self.leq)
        if self.size == 0:
            raise LatticeError("empty carrier")
        if any(len(row) != self.size for row in self.leq):
            raise LatticeError("order matrix is not square")
        order = _order_masks(self.leq)
        if order is None:
            raise LatticeError("not a partial order")
        self.up, self.down = up, down = order
        self.join_table = _preorder_bounds(up)
        self.meet_table = _preorder_bounds(down)
        for kind, table in (("join", self.join_table), ("meet", self.meet_table)):
            for i, row in enumerate(table):
                if None in row:
                    raise LatticeError(f"no unique {kind} for ({i}, {row.index(None)})")
        # every pair has a join and a meet, so one element is below all and one above all
        full = (1 << self.size) - 1
        self.bottom, self.top = up.index(full), down.index(full)

    @classmethod
    def from_subsets(cls, sets):
        """Lattice of the given family of bitmasks ordered by inclusion."""
        return cls(inclusion_order(sets))

    def join(self, i, j):
        return self.join_table[i][j]

    def meet(self, i, j):
        return self.meet_table[i][j]

    @cached_property
    def is_distributive(self):
        """i ^ (j v k) == (i ^ j) v (i ^ k) for all i, j, k, compared a slab of (j, k) at a time.

        With rows as ``bytes`` each side is a translate: the flat join table
        through row i of the meet, against row i of the meet through row
        i ^ j of the join, for each j.  More than 255 elements do not fit a
        byte; then rows of k are gathered with ``itemgetter``.
        """
        jn, mt = self.join_table, self.meet_table
        n = self.size
        if n > 255:
            through_join = [itemgetter(*row) for row in jn]
            through_meet = [itemgetter(*row) for row in mt]
            return all(
                through_join[j](mt_i) == through_meet[i](jn[mt_i[j]])
                for i, mt_i in enumerate(mt)
                for j in range(n)
            )
        pad = bytes(256 - n)
        jn_rows = list(map(bytes, jn))
        flat_jn = b"".join(jn_rows)
        jn_luts = [row + pad for row in jn_rows]
        return all(
            flat_jn.translate(mt_i + pad) == b"".join([mt_i.translate(jn_luts[v]) for v in mt_i])
            for mt_i in map(bytes, mt)
        )

    @cached_property
    def residual_table(self):
        """residual_table[b][a]: the least h with b <= a v h, or None where there is none.

        The candidates h, as a bitmask, form an up-set holding the top; the
        residual is its least member, found as in ``bound_table``.
        """
        leq, jn = self.leq, self.join_table
        powers = [1 << h for h in range(self.size)]
        least = _Least(self.up)
        return tuple(
            tuple(least[sum(compress(powers, map(leq_b.__getitem__, jn_a)))] for jn_a in jn)
            for leq_b in leq
        )

    @cached_property
    def _colors(self):
        return refine(self.join_table)

    def isomorphism(self, other):
        """A bijection preserving the order both ways, or None."""
        return isomorphism(self.join_table, self._colors, other.join_table, other._colors)
