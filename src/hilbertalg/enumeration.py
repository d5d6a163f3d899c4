"""Exhaustive generation of all Hilbert algebras of a given size.

In a Hilbert algebra x -> y = 1 exactly when x <= y, so the natural order
fixes every unit cell of the table.  The search is therefore poset-first.
For each unlabelled poset on the n-1 points below the unit (each one a
smaller poset with a new minimal point added under one of its up-sets), the
unit is put on top and the order cells are pinned: x -> y = 1 iff x <= y,
and 1 -> x = x.  Every other cell x -> y takes some v != 1 with y <= v, the
weakening law.  These free cells are filled depth-first, and every exchange
instance is watched so that once its inner lookups resolve, its final
inequality is checked against the pinned order.  The tables found for one
poset are deduped by orbit: each new class is expanded to its distinct
relabellings, which are all yielded and all marked seen, so the search
yields every labelled table once.  Every yielded table is re-validated
from scratch, so the pinning cannot admit a bad table.  Canonical forms, isomorphism
witnesses, endomorphism monoids and the cross-algebra survey live here as
well.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, permutations

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

SEARCH_BOUND = 6

# unlabelled posets on 0..16 points (OEIS A000112; Brinkmann & McKay,
# "Posets on up to 16 points", Order 19, 2002): the search runs once per
# poset on n-1 points
POSET_COUNTS = (
    1, 1, 2, 5, 16, 63, 318, 2045, 16999, 183231, 2567284, 46749427,
    1104891746, 33823827452, 1338193159771, 68275077901156, 4483130665195087,
)


class EnumerationBound(ValueError):
    pass


def _poset_table(up):
    """The flat table of the poset ``up`` under a top unit: x -> y = 1 if x <= y, else y."""
    one = len(up)
    rng = range(one + 1)
    return tuple(one if y == one or x < one and up[x] >> y & 1 else y for x in rng for y in rng)


@cache
def unlabelled_posets(points):
    """One poset per isomorphism class on 0..points-1, as up-set bitmasks.

    Bit j of ``up[i]`` is set when i <= j.  Every poset has a minimal point,
    and removing it leaves a poset whose up-sets include that point's strict
    up-set; so adding a new minimal point under each up-set of each smaller
    poset reaches every class.  The least relabelling of each poset's table
    picks one representative per class.
    """
    if points == 0:
        return ((),)
    new = 1 << (points - 1)
    found = {}
    for up in unlabelled_posets(points - 1):
        for mask in range(new):
            if all(up[i] | mask == mask for i in range(points - 1) if mask >> i & 1):
                grown = up + (mask | new,)
                found.setdefault(_least_relabelling(_poset_table(grown), points + 1), grown)
    return tuple(found.values())


@cache
def _relabellings(n):
    """Every relabelling of 0..n-1 that fixes the unit n-1, as (lab, src).

    ``lab[x]`` is the new label of x, and ``src[k]`` is the flat cell of the
    original table that lands on flat cell k (row-major) of the relabelled one.
    """
    out = []
    for perm in permutations(range(n - 1)):
        lab = perm + (n - 1,)
        inv = [0] * n
        for x, a in enumerate(lab):
            inv[a] = x
        out.append((lab, tuple(inv[a] * n + inv[b] for a in range(n) for b in range(n))))
    return tuple(out)


def _relabel(flat, rel):
    lab, src = rel
    return tuple([lab[flat[s]] for s in src])


def _tables_over(up):
    """Every valid flat table whose order is the poset ``up`` under a top unit."""
    one = len(up)
    n = one + 1
    leq = [[bool(up[x] >> y & 1) for y in range(one)] + [True] for x in range(one)]
    leq.append([False] * one + [True])
    table = [[one if leq[x][y] else None for y in range(n)] for x in range(one)]
    table.append(list(range(n)))
    watchers = defaultdict(set)

    def watch_eval(t):
        """False once the exchange instance t resolves to lhs -> rhs != 1.

        Until then, t waits on the first unknown cell of its evaluation chain.
        Every unit cell is pinned, so lhs -> rhs = 1 exactly when lhs <= rhs.
        """
        x, y, z = t
        v1 = table[y][z]
        if v1 is None:
            watchers[(y, z)].add(t)
            return True
        lhs = table[x][v1]
        if lhs is None:
            watchers[(x, v1)].add(t)
            return True
        v3 = table[x][y]
        if v3 is None:
            watchers[(x, y)].add(t)
            return True
        v4 = table[x][z]
        if v4 is None:
            watchers[(x, z)].add(t)
            return True
        rhs = table[v3][v4]
        if rhs is None:
            watchers[(v3, v4)].add(t)
            return True
        return leq[lhs][rhs]

    def assign(x, y, v):
        table[x][y] = v
        return all(watch_eval(t) for t in tuple(watchers.get((x, y), ())))

    rng = range(n)
    if not all(watch_eval((x, y, z)) for x in rng for y in rng for z in rng):
        return
    free = [(x, y) for x in range(one) for y in range(one) if not leq[x][y]]
    # weakening: y <= (x -> y), and only order cells hold the unit
    above = [[v for v in range(one) if leq[y][v]] for y in range(one)]

    def dfs(k):
        if k == len(free):
            yield tuple(chain.from_iterable(table))
            return
        x, y = free[k]
        for v in above[y]:
            if assign(x, y, v):
                yield from dfs(k + 1)
            table[x][y] = None

    yield from dfs(0)


def search_valid_tables(n):
    """Yield every Hilbert-algebra table on 0..n-1 with unit n-1, without dedup."""
    rels = _relabellings(n)
    for up in unlabelled_posets(n - 1):
        seen = set()
        for hit in _tables_over(up):
            if hit in seen:
                continue
            # a later hit isomorphic to this one has the same order, so the
            # relabelling between them is a poset automorphism: it is in the orbit
            orbit = dict.fromkeys(_relabel(hit, r) for r in rels)
            seen.update(orbit)
            for flat in orbit:
                snapshot = tuple(flat[i : i + n] for i in range(0, n * n, n))
                if axiom_violations(snapshot, n - 1):
                    raise InvariantViolation(f"search produced an invalid table {snapshot}")
                yield snapshot


def _least_relabelling(flat, n):
    """The least unit-fixing relabelling of a flat table with unit n-1.

    Candidates are compared cell by cell in row-major order and dropped at
    the first cell where they exceed the best so far.
    """
    best = None
    for lab, src in _relabellings(n):
        if best is not None:
            for s, b in zip(src, best):
                c = lab[flat[s]]
                if c != b:
                    break
            else:
                continue  # equal to the best so far
            if c > b:
                continue
        best = tuple([lab[flat[s]] for s in src])
    return best


def canonical_table(table, one):
    """Lexicographically least relabeling of the table, unit placed last."""
    n = len(table)
    order = [x for x in range(n) if x != one] + [one]
    pos = [0] * n
    for i, x in enumerate(order):
        pos[x] = i
    best = _least_relabelling([pos[table[x][y]] for x in order for y in order], n)
    return tuple(best[i : i + n] for i in range(0, n * n, n))


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


def enumerate_algebras(n):
    """All Hilbert algebras with n elements up to isomorphism, with statistics."""
    if n < 1:
        raise ValueError("size must be positive")
    if n > SEARCH_BOUND:
        points = n - 1
        if points < len(POSET_COUNTS):
            posets = f"{POSET_COUNTS[points]} posets"
        else:
            posets = f"more than {POSET_COUNTS[-1]} posets"
        raise EnumerationBound(
            f"size {n} exceeds the search bound {SEARCH_BOUND}; the search space "
            f"holds {posets} on {points} points"
        )
    reps = set()
    raw = 0
    for t in search_valid_tables(n):
        raw += 1
        reps.add(canonical_table(t, n - 1))
    entries = tuple(catalog_entry(validate_hilbert(t, n - 1)) for t in sorted(reps))
    return AlgebraCatalog(n=n, entries=entries, raw_count=raw)


def catalog_through(n):
    """Catalog entries of every size from 1 through n."""
    out = []
    for k in range(1, n + 1):
        out.extend(enumerate_algebras(k).entries)
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

