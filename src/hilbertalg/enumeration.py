"""Exhaustive generation of all Hilbert algebras of a given size.

The search fills the unpinned table cells depth-first with unit
propagation: weakening and transitivity force cells to the unit, and every
exchange instance is watched so that once its inner lookups resolve it
forces its final inequality cell.  The unit's row is pre-filled with the
identity (a derived fact, used here as a propagation shortcut); every
finished table is re-validated from scratch, so the shortcut cannot admit a
bad table.  Canonical forms, isomorphism witnesses, endomorphism monoids
and the cross-algebra survey live here as well.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .closure import search_endomorphisms
from .core import (
    FiniteHilbertAlgebra,
    InvariantViolation,
    axiom_violations,
    validate_hilbert,
)
from .lattice import isomorphism, refine
from .multipliers import closed_table, compose, identity_map
from .report import ReportBuilder, fmt
from .structures import Structures

SEARCH_BOUND_DEFAULT = 6


class EnumerationBound(ValueError):
    pass


def search_valid_tables(n):
    """Yield every Hilbert-algebra table on 0..n-1 with unit n-1, without dedup."""
    one = n - 1
    if n == 1:
        yield ((0,),)
        return

    table = [[None] * n for _ in range(n)]
    watchers = defaultdict(set)

    def watch_eval(t, pending):
        """Resolve an exchange instance as far as the table allows.

        Subscribes to the first unknown cell on its evaluation chain; once
        fully resolved, forces the final cell (lhs -> rhs) to the unit.
        """
        x, y, z = t
        v1 = table[y][z]
        if v1 is None:
            watchers[(y, z)].add(t)
            return
        lhs = table[x][v1]
        if lhs is None:
            watchers[(x, v1)].add(t)
            return
        v3 = table[x][y]
        if v3 is None:
            watchers[(x, y)].add(t)
            return
        v4 = table[x][z]
        if v4 is None:
            watchers[(x, z)].add(t)
            return
        rhs = table[v3][v4]
        if rhs is None:
            watchers[(v3, v4)].add(t)
            return
        pending.append((lhs, rhs, one))

    def assign(cx, cy, cv, trail):
        pending = [(cx, cy, cv)]
        while pending:
            x, y, v = pending.pop()
            cur = table[x][y]
            if cur is not None:
                if cur != v:
                    return False
                continue
            if v != one:
                # weakening with this cell on the outside: if t -> x is known
                # to be y then x <= (t -> x) forces x -> y to be the unit
                if any(table[t][x] == y for t in range(n)):
                    return False
            if v == one and x != y and table[y][x] == one:
                return False  # antisymmetry
            table[x][y] = v
            trail.append((x, y))
            # weakening with this cell inside: y <= (x -> y)
            pending.append((y, v, one))
            if v == one:
                for z in range(n):
                    if table[y][z] == one and table[x][z] != one:
                        pending.append((x, z, one))
                    if table[z][x] == one and table[z][y] != one:
                        pending.append((z, y, one))
            for t in tuple(watchers.get((x, y), ())):
                watch_eval(t, pending)
        return True

    def undo(trail):
        for x, y in trail:
            table[x][y] = None

    trail = []
    ok = True
    for x in range(n):
        ok = ok and assign(x, x, one, trail)
        ok = ok and assign(x, one, one, trail)
        ok = ok and assign(one, x, x, trail)
    if ok:
        pending = []
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    watch_eval((x, y, z), pending)
        while pending and ok:
            x, y, v = pending.pop()
            ok = assign(x, y, v, trail)

    free = [(x, y) for x in range(n - 1) for y in range(n - 1) if x != y]

    def dfs(k):
        if k == len(free):
            snapshot = tuple(tuple(row) for row in table)
            if axiom_violations(snapshot, one):
                raise InvariantViolation(f"search produced an invalid table {snapshot}")
            yield snapshot
            return
        x, y = free[k]
        if table[x][y] is not None:
            yield from dfs(k + 1)
            return
        for v in range(n):
            t = []
            if assign(x, y, v, t):
                yield from dfs(k + 1)
            undo(t)

    if ok:
        yield from dfs(0)
    undo(trail)


def canonical_table(table, one):
    """Lexicographically least relabeling of the table, unit placed last."""
    n = len(table)
    rest = [i for i in range(n) if i != one]
    best = None
    for perm in permutations(range(n - 1)):
        relab = [None] * n
        relab[one] = n - 1
        for src, dst in zip(rest, perm):
            relab[src] = dst
        out = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                out[relab[x]][relab[y]] = relab[table[x][y]]
        cand = tuple(tuple(row) for row in out)
        if best is None or cand < best:
            best = cand
    return best


def canonical_form(alg):
    return canonical_table(alg.imp, alg.one)


def are_isomorphic(a, b):
    """A permutation carrying one algebra onto the other, or None."""
    return isomorphism(a.imp, a.colors, b.imp, b.colors)


@dataclass(frozen=True)
class CatalogEntry:
    algebra: FiniteHilbertAlgebra
    filter_count: int
    multiplier_count: int
    ce_count: int
    implication_algebra: bool
    implicative_semilattice: bool


@dataclass(frozen=True)
class AlgebraCatalog:
    n: int
    entries: tuple
    raw_count: int

    def __len__(self):
        return len(self.entries)

    def algebras(self):
        return [e.algebra for e in self.entries]


def catalog_entry(alg):
    ctx = Structures(alg)  # not kept: an entry holds counts only
    return CatalogEntry(
        algebra=alg,
        filter_count=len(ctx.filters),
        multiplier_count=len(ctx.multipliers),
        ce_count=len(ctx.ce),
        implication_algebra=ctx.flags.implication_algebra,
        implicative_semilattice=ctx.flags.implicative_semilattice,
    )


def enumerate_algebras(n, bound=SEARCH_BOUND_DEFAULT):
    """All Hilbert algebras with n elements up to isomorphism, with statistics."""
    if n < 1:
        raise ValueError("size must be positive")
    if n > bound:
        cells = (n - 1) * (n - 2)
        raise EnumerationBound(
            f"size {n} exceeds the search bound {bound}; the raw search space "
            f"has ~{float(n) ** cells:.2e} tables"
        )
    reps = set()
    raw = 0
    for t in search_valid_tables(n):
        raw += 1
        reps.add(canonical_table(t, n - 1))
    entries = tuple(catalog_entry(validate_hilbert(t, n - 1)) for t in sorted(reps))
    return AlgebraCatalog(n=n, entries=entries, raw_count=raw)


def catalog_through(n, bound=SEARCH_BOUND_DEFAULT):
    """Catalog entries of every size from 1 through n."""
    out = []
    for k in range(1, n + 1):
        out.extend(enumerate_algebras(k, bound).entries)
    return out


# ---------------------------------------------------------------------------
# endomorphism monoids


@dataclass(frozen=True)
class EndoMonoid:
    """All endomorphisms with their composition table; table[i][j] = i after j."""

    maps: tuple
    table: tuple
    identity: int

    def __len__(self):
        return len(self.maps)

    @cached_property
    def colors(self):
        """The colouring of ``table`` with the identity marked, computed once."""
        return _monoid_colors(self)


def endomorphism_monoid(alg):
    maps = tuple(search_endomorphisms(alg))
    index = {f: i for i, f in enumerate(maps)}
    table = closed_table(maps, index, compose, "endomorphisms", "composition")
    return EndoMonoid(maps=maps, table=table, identity=index[identity_map(alg)])


def _monoid_colors(m):
    return refine(m.table, (m.identity,))


def monoid_isomorphism(m1, m2):
    """A composition-preserving bijection of monoids, or None."""
    if len(m1) != len(m2):
        return None
    return isomorphism(m1.table, m1.colors, m2.table, m2.colors)


# ---------------------------------------------------------------------------
# cross-algebra survey


def cross_survey_report(entries):
    """Isomorphism relations between every pair of catalog algebras.

    Checks, across all pairs: filter lattices isomorphic iff the closure
    endomorphism (adjoint) lattices are; isomorphic endomorphism monoids
    force isomorphic adjoint lattices, and the induced bijection carries
    closure endomorphisms to closure endomorphisms; implicative
    semilattices with isomorphic monoids are isomorphic algebras.
    """
    b = ReportBuilder("cross-survey")
    data = []
    for e in entries:
        alg = e.algebra
        ctx = Structures(alg)
        mon = endomorphism_monoid(alg)
        ce_idx = frozenset(mon.maps.index(f) for f in ctx.ce.carrier)
        data.append(
            {
                "entry": e,
                "alg": alg,
                "filters": ctx.filters.lattice,
                "adjoint": ctx.ce.lattice,
                "monoid": mon,
                "ce_idx": ce_idx,
            }
        )

    bicond, mono_adj, ce_transfer, rigidity, sanity = [], [], [], [], []
    pairs = 0
    for i in range(len(data)):
        for j in range(i, len(data)):
            pairs += 1
            di, dj = data[i], data[j]
            tag = fmt(first=i, second=j)
            fl_iso = di["filters"].isomorphism(dj["filters"]) is not None
            adj_iso = di["adjoint"].isomorphism(dj["adjoint"]) is not None
            miso = monoid_isomorphism(di["monoid"], dj["monoid"])
            alg_iso = are_isomorphic(di["alg"], dj["alg"]) is not None
            if fl_iso != adj_iso:
                bicond.append(fmt(pair=tag, filters=fl_iso, adjoint=adj_iso))
            if miso is not None:
                if not adj_iso:
                    mono_adj.append(tag)
                image = frozenset(miso[t] for t in di["ce_idx"])
                if image != dj["ce_idx"]:
                    ce_transfer.append(tag)
            both_semilattices = (
                di["entry"].implicative_semilattice and dj["entry"].implicative_semilattice
            )
            if both_semilattices and (miso is not None) != alg_iso:
                rigidity.append(fmt(pair=tag, monoid=miso is not None, algebra=alg_iso))
            if alg_iso and not (fl_iso and adj_iso and miso is not None):
                sanity.append(tag)

    detail = f"{len(entries)} algebras, {pairs} pairs"
    b.check("filter-lattice-iff-adjoint", bicond, detail=detail)
    b.check("monoid-iso-implies-adjoint-iso", mono_adj)
    b.check("monoid-iso-carries-closure-endos", ce_transfer)
    b.check("implicative-semilattice-rigidity", rigidity)
    b.check("isomorphic-algebras-sanity", sanity)
    return b.done()

