"""Finite lattices given by an order matrix, with isomorphism testing.

Used as the uniform container for filter lattices, closure-endomorphism
lattices and ideal lattices.  Isomorphism works by iterated colour
refinement on the order relation followed by class-respecting backtracking;
anti-isomorphism is isomorphism with the dual.
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


def _rank(keys):
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return tuple(order[k] for k in keys)


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
        self.join_table = self._bound_table(upper=True)
        self.meet_table = self._bound_table(upper=False)

    @classmethod
    def from_subsets(cls, sets):
        """Lattice of the given family ordered by inclusion."""
        return cls([[a <= b for b in sets] for a in sets])

    def _bound_table(self, upper):
        n, leq = self.size, self.leq
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                if upper:
                    cands = [k for k in range(n) if leq[i][k] and leq[j][k]]
                    best = [k for k in cands if all(leq[k][c] for c in cands)]
                else:
                    cands = [k for k in range(n) if leq[k][i] and leq[k][j]]
                    best = [k for k in cands if all(leq[c][k] for c in cands)]
                if len(best) != 1:
                    kind = "join" if upper else "meet"
                    raise LatticeError(f"no unique {kind} for ({i}, {j})")
                row.append(best[0])
            table.append(tuple(row))
        return tuple(table)

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

    def dual(self):
        return FiniteLattice([[self.leq[j][i] for j in range(self.size)] for i in range(self.size)])

    @cached_property
    def _colors(self):
        n, leq = self.size, self.leq
        cov = self.covers
        colors = _rank(
            [
                (
                    sum(leq[j][i] for j in range(n)),
                    sum(leq[i][j] for j in range(n)),
                    len(cov[i]),
                )
                for i in range(n)
            ]
        )
        while True:
            profile = [
                (
                    colors[i],
                    tuple(sorted(colors[j] for j in range(n) if leq[i][j])),
                    tuple(sorted(colors[j] for j in range(n) if leq[j][i])),
                )
                for i in range(n)
            ]
            refined = _rank(profile)
            if refined == colors:
                return colors
            colors = refined

    def isomorphism(self, other):
        """A bijection preserving the order both ways, or None."""
        if self.size != other.size:
            return None
        ca, cb = self._colors, other._colors
        if sorted(ca) != sorted(cb):
            return None
        n = self.size
        candidates = [[j for j in range(n) if cb[j] == ca[i]] for i in range(n)]
        order = sorted(range(n), key=lambda i: (len(candidates[i]), i))
        la, lb = self.leq, other.leq
        mapping = [None] * n
        used = [False] * n

        def place(k):
            if k == n:
                return True
            i = order[k]
            for j in candidates[i]:
                if used[j]:
                    continue
                ok = True
                for k2 in range(k):
                    i2 = order[k2]
                    j2 = mapping[i2]
                    if la[i][i2] != lb[j][j2] or la[i2][i] != lb[j2][j]:
                        ok = False
                        break
                if ok:
                    mapping[i] = j
                    used[j] = True
                    if place(k + 1):
                        return True
                    mapping[i] = None
                    used[j] = False
            return False

        return mapping if place(0) else None

    def is_isomorphic(self, other):
        return self.isomorphism(other) is not None

    def anti_isomorphism(self, other):
        """A bijection reversing the order, or None."""
        return self.isomorphism(other.dual())
