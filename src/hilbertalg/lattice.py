"""Finite lattices given by an order matrix, and isomorphism of finite operation tables.

Used as the uniform container for filter lattices, closure-endomorphism
lattices and ideal lattices.  ``refine`` and ``isomorphism`` serve every
isomorphism test of the package: lattices compare their join tables (a
bijection preserves joins exactly when it preserves the order), an
anti-isomorphism carries one join table onto the other lattice's meet
table, and endomorphism monoids and algebras compare their composition and
implication tables with the identity or the unit marked.  Colour refinement
splits the elements into classes no isomorphism can mix; an iterative
backtracking search then maps class onto class.
"""

from __future__ import annotations

from functools import cached_property


class LatticeError(ValueError):
    pass


def is_partial_order(leq):
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            return False
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return False
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        return False
    return True


def cover_pairs(leq):
    """Pairs (i, j), in row-major order, where j covers i in the order matrix."""
    n = len(leq)
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and leq[i][j]
        and not any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(n))
    ]


def bound_table(leq, upper):
    """For every pair (i, j) of the order matrix, the least upper bound or,
    with ``upper=False``, the greatest lower bound; None where there is none."""
    n = len(leq)
    rel = leq if upper else tuple(zip(*leq))
    # beyond[i]: bitmask of the elements above i (below i when not upper)
    beyond = [sum(1 << k for k in range(n) if rel[i][k]) for i in range(n)]

    def best(common):
        return next((k for k in range(n) if common >> k & 1 and not common & ~beyond[k]), None)

    return tuple(tuple(best(beyond[i] & beyond[j]) for j in range(n)) for i in range(n))


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
        self.leq = tuple(tuple(bool(v) for v in row) for row in leq)
        self.size = len(self.leq)
        if self.size == 0:
            raise LatticeError("empty carrier")
        if any(len(row) != self.size for row in self.leq):
            raise LatticeError("order matrix is not square")
        if not is_partial_order(self.leq):
            raise LatticeError("not a partial order")
        self.join_table = bound_table(self.leq, upper=True)
        self.meet_table = bound_table(self.leq, upper=False)
        for kind, table in (("join", self.join_table), ("meet", self.meet_table)):
            for i, row in enumerate(table):
                if None in row:
                    raise LatticeError(f"no unique {kind} for ({i}, {row.index(None)})")

    @classmethod
    def from_subsets(cls, sets):
        """Lattice of the given family ordered by inclusion."""
        return cls([[a <= b for b in sets] for a in sets])

    def join(self, i, j):
        return self.join_table[i][j]

    def meet(self, i, j):
        return self.meet_table[i][j]

    @cached_property
    def bottom(self):
        for i in range(self.size):
            if all(self.leq[i][j] for j in range(self.size)):
                return i
        raise LatticeError("no bottom")

    @cached_property
    def top(self):
        for i in range(self.size):
            if all(self.leq[j][i] for j in range(self.size)):
                return i
        raise LatticeError("no top")

    @cached_property
    def covers(self):
        """covers[i] = indices that cover i (no element strictly between)."""
        out = [[] for _ in range(self.size)]
        for i, j in cover_pairs(self.leq):
            out[i].append(j)
        return tuple(map(tuple, out))

    @cached_property
    def is_distributive(self):
        n = self.size
        jn, mt = self.join_table, self.meet_table
        return all(
            mt[i][jn[j][k]] == jn[mt[i][j]][mt[i][k]]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )

    @cached_property
    def residual_table(self):
        """residual_table[b][a]: the least h with b <= a v h, or None where there is none.

        The candidates h form an up-set holding the top, so their meet is
        the least candidate exactly when it is itself a candidate.
        """
        n, leq, jn, mt = self.size, self.leq, self.join_table, self.meet_table

        def least(b, a):
            m = self.top
            for h in range(n):
                if leq[b][jn[a][h]]:
                    m = mt[m][h]
            return m if leq[b][jn[a][m]] else None

        return tuple(tuple(least(b, a) for a in range(n)) for b in range(n))

    @cached_property
    def _colors(self):
        return refine(self.join_table)

    def isomorphism(self, other):
        """A bijection preserving the order both ways, or None."""
        return isomorphism(self.join_table, self._colors, other.join_table, other._colors)

    def anti_isomorphism(self, other):
        """A bijection reversing the order, or None."""
        meet = other.meet_table
        return isomorphism(self.join_table, self._colors, meet, refine(meet))
