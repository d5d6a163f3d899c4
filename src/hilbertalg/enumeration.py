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
yields every labelled table once.  Each orbit is re-validated from scratch
once, on the hit that starts it, so the pinning cannot admit a bad table;
relabelling keeps a table valid, so the other members are not checked
again.  The canonical form of a table is the least member of its orbit; the
walk that expands a class maps each member to it, and that serves
``canonical_table`` for every table the search yields: one orbit walk per
class, not one per raw table.  Isomorphism witnesses, endomorphism monoids
and the cross-algebra survey live here as well.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, permutations

from .core import (
    FiniteHilbertAlgebra,
    InvariantViolation,
    axiom_violations,
    validate_hilbert,
)
from .closure import is_endomorphism
from .lattice import FiniteLattice, bits, isomorphism, refine
from .multipliers import compose, identity_map, map_table
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


def _orbit(flat, n):
    """The distinct unit-fixing relabellings of a flat table, in relabelling order.

    The walk rebinds ``_orbit_least`` to map each member to the orbit's least
    one for ``canonical_table``; the returned dict is not that memo.
    """
    global _orbit_least
    orbit = dict.fromkeys(_relabel(flat, r) for r in _relabellings(n))
    _orbit_least = dict.fromkeys(orbit, _rows(min(orbit), n))
    return orbit


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


def _rows(flat, n):
    return tuple(flat[i : i + n] for i in range(0, n * n, n))


def search_valid_tables(n):
    """Yield every Hilbert-algebra table on 0..n-1 with unit n-1, each labelled table once.

    Each new hit of the poset search is re-validated before its orbit is
    built; its relabellings are valid with it and are yielded unchecked.
    """
    for up in unlabelled_posets(n - 1):
        seen = set()
        for hit in _tables_over(up):
            if hit in seen:
                continue
            rows = _rows(hit, n)
            if axiom_violations(rows, n - 1):
                raise InvariantViolation(f"search produced an invalid table {rows}")
            # a later hit isomorphic to this one has the same order, so the
            # relabelling between them is a poset automorphism: it is in the orbit
            orbit = _orbit(hit, n)
            seen.update(orbit)
            for flat in orbit:
                yield _rows(flat, n)


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


# every member of the last orbit walked by ``_orbit``, mapped to the orbit's
# least member as a table; at most (n-1)! entries
_orbit_least = {}


def canonical_table(table, one):
    """Lexicographically least relabeling of the table, unit placed last.

    Every member of an orbit under the unit-fixing relabellings has the same
    least relabelling, the orbit's minimum.  The unit is moved last and the
    table looked up in the memo of the last orbit walked; the search's walk
    of a class puts every table it yields there.  A table outside it has its
    own orbit walked.  The result is exact for any table, Hilbert algebra or
    not; ``_least_relabelling`` is the reference.
    """
    n = len(table)
    order = [x for x in range(n) if x != one] + [one]
    pos = [0] * n
    for i, x in enumerate(order):
        pos[x] = i
    flat = tuple([pos[table[x][y]] for x in order for y in order])
    if flat not in _orbit_least:
        _orbit(flat, n)
    return _orbit_least[flat]


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


def classes(n):
    """(one validated algebra per class of size n, in canonical order; raw table count)."""
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
    return tuple(validate_hilbert(t, n - 1) for t in sorted(reps)), raw


def enumerate_algebras(n):
    """All Hilbert algebras with n elements up to isomorphism, with statistics."""
    algebras, raw = classes(n)
    return AlgebraCatalog(n=n, entries=tuple(map(catalog_entry, algebras)), raw_count=raw)


# ---------------------------------------------------------------------------
# endomorphism monoids


@dataclass(frozen=True)
class EndoMonoid:
    """All endomorphisms under composition, with ``maps[identity]`` the identity.

    ``table[i][j]``, the index of maps[i] after maps[j], is built on first
    use, and re-checks that the maps are closed under composition.
    """

    maps: tuple
    identity: int

    def __len__(self):
        return len(self.maps)

    @cached_property
    def table(self):
        index = {f: i for i, f in enumerate(self.maps)}
        return map_table(self.maps, index, compose, "endomorphisms", "composition")

    @cached_property
    def colors(self):
        """The colouring of ``table`` with the identity marked, computed once."""
        return _monoid_colors(self)


def endomorphism_monoid(ctx):
    """The endomorphisms of ``ctx.alg`` as a monoid, its composition table built and re-checked.

    Each map is re-checked to be an endomorphism too, so a foreign map that
    keeps the set a closed monoid is caught.
    """
    maps, identity = tuple(ctx.endomorphisms), identity_map(ctx.alg)
    if identity not in maps:
        raise InvariantViolation(f"endomorphisms miss the identity {identity}")
    for f in maps:
        if not is_endomorphism(ctx.alg, f):
            raise InvariantViolation(f"endomorphisms hold a non-endomorphism {f}")
    mon = EndoMonoid(maps=maps, identity=maps.index(identity))
    mon.table  # built now: the re-check that the maps are closed under composition
    return mon


def _monoid_colors(m):
    return refine(m.table, (m.identity,))


def monoid_isomorphism(m1, m2):
    """A composition-preserving bijection of monoids, or None."""
    if len(m1) != len(m2):
        return None
    return isomorphism(m1.table, m1.colors, m2.table, m2.colors)


# ---------------------------------------------------------------------------
# cross-algebra survey


@dataclass(frozen=True)
class SurveyRecord:
    """What the cross-survey compares of one algebra, read off its ``Structures``.

    ``filters`` and ``adjoint`` are the filter and closure endomorphism
    lattices, already coloured; ``monoid`` holds the endomorphisms without
    their table, and ``ce_idx`` the bitmask of the indices of the closure
    endomorphisms among them.
    """

    filters: FiniteLattice
    adjoint: FiniteLattice
    monoid: EndoMonoid
    ce_idx: int
    implicative_semilattice: bool


def survey_record(ctx):
    """The survey record of ``ctx.alg``.

    The endomorphisms are re-checked closed under composition here, once per
    algebra, but the record keeps only the maps: the survey needs a monoid's
    table only where another monoid has the same size.
    """
    mon = endomorphism_monoid(ctx)
    index = {f: i for i, f in enumerate(mon.maps)}
    filters, adjoint = ctx.filters.lattice, ctx.ce.lattice
    for lat in (filters, adjoint):
        lat._colors  # coloured here, once, for the survey's pairwise tests
    return SurveyRecord(
        filters=filters,
        adjoint=adjoint,
        monoid=EndoMonoid(maps=mon.maps, identity=mon.identity),
        ce_idx=sum(1 << index[f] for f in ctx.ce.carrier),
        implicative_semilattice=ctx.flags.implicative_semilattice,
    )


def cross_survey_report(algebras, records):
    """Isomorphism relations between every pair of catalog algebras.

    ``records[i]`` is the ``survey_record`` of ``algebras[i]``.  Checks,
    across all pairs: filter lattices isomorphic iff the closure
    endomorphism (adjoint) lattices are; isomorphic endomorphism monoids
    force isomorphic adjoint lattices, and the induced bijection carries
    closure endomorphisms to closure endomorphisms; implicative
    semilattices with isomorphic monoids are isomorphic algebras.  A monoid
    is carried onto itself by the identity, so its table is built only when
    another monoid has its size.
    """
    b = ReportBuilder("cross-survey")
    bicond, mono_adj, ce_transfer, rigidity, sanity = [], [], [], [], []
    pairs = 0
    for i, di in enumerate(records):
        for j in range(i, len(records)):
            pairs += 1
            dj = records[j]
            tag = fmt(first=i, second=j)
            fl_iso = di.filters.isomorphism(dj.filters) is not None
            adj_iso = di.adjoint.isomorphism(dj.adjoint) is not None
            if i == j:
                miso = range(len(di.monoid))
            else:
                miso = monoid_isomorphism(di.monoid, dj.monoid)
            alg_iso = are_isomorphic(algebras[i], algebras[j]) is not None
            if fl_iso != adj_iso:
                bicond.append(fmt(pair=tag, filters=fl_iso, adjoint=adj_iso))
            if miso is not None:
                if not adj_iso:
                    mono_adj.append(tag)
                image = sum(1 << miso[t] for t in bits(di.ce_idx))
                if image != dj.ce_idx:
                    ce_transfer.append(tag)
            both_semilattices = di.implicative_semilattice and dj.implicative_semilattice
            if both_semilattices and (miso is not None) != alg_iso:
                rigidity.append(fmt(pair=tag, monoid=miso is not None, algebra=alg_iso))
            if alg_iso and not (fl_iso and adj_iso and miso is not None):
                sanity.append(tag)

    detail = f"{len(records)} algebras, {pairs} pairs"
    b.check("filter-lattice-iff-adjoint", bicond, detail=detail)
    b.check("monoid-iso-implies-adjoint-iso", mono_adj)
    b.check("monoid-iso-carries-closure-endos", ce_transfer)
    b.check("implicative-semilattice-rigidity", rigidity)
    b.check("isomorphic-algebras-sanity", sanity)
    return b.done()
