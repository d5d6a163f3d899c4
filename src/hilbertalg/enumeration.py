"""Exhaustive generation of all Hilbert algebras of a given size.

A finite Hilbert algebra A is a ->-subalgebra of its minimal Brouwerian
extension E(A) that generates it under meets (A. Diego, "Sur les algebres
de Hilbert", 1966; W. C. Nemitz, "Implicative semi-lattices", 1965).  E(A)
is a finite Heyting algebra, the down-sets O(P) of its poset P of
join-irreducibles, and a subset generates it under meets exactly when it
holds every meet-irreducible, the complement of the up-set of a point.  So
each class of n-element algebras is a set S of n down-sets of a poset P on
k < n points that holds those k and the top and is closed under
a -> b = P minus up(a minus b); ``_extension_tables`` lists them for each
unlabelled poset.  E(A) is unique up to isomorphism over A, so two
isomorphic algebras come from the same poset, and the tables of one poset
are deduped by orbit: each new class is expanded to its distinct
relabellings, which are all yielded and all marked seen, so the search
yields every labelled table once.  Each orbit is re-validated from scratch
once, on the table that starts it; relabelling keeps a table valid, so the
other members are not checked again.  The canonical form of a table is the
least member of its orbit; the walk that expands a class maps each member
to it, and that serves ``canonical_table`` for every table the search
yields: one orbit walk per class, not one per raw table.  The walk holds
the table as bytes and makes each relabelling in two steps, every label at
once by ``bytes.translate`` and every cell into its place by one
precomputed ``itemgetter``.

Isomorphism witnesses, endomorphism monoids and the cross-algebra survey
live here as well.  An endomorphism monoid is re-checked closed under
composition without its table (``composite_outside``): the right products
of greedy generators are grown from the identity, and each must be one of
the maps.  The table is built only where the survey compares two monoids
of one size, and it re-checks closure again.
"""

from __future__ import annotations

from functools import cache, cached_property, reduce
from itertools import chain, combinations, groupby, permutations, product
from operator import itemgetter, or_
from typing import NamedTuple

from .core import (
    FiniteHilbertAlgebra,
    InvariantViolation,
    axiom_violations,
    validate_hilbert,
)
from .closure import is_endomorphism
from .lattice import FiniteLattice, _rank, bits, isomorphism, refine
from .multipliers import _gather, compose, identity_map, map_table
from .report import ReportBuilder, fmt
from .structures import Structures

SEARCH_BOUND = 6

# unlabelled posets on 0..16 points (OEIS A000112; Brinkmann & McKay,
# "Posets on up to 16 points", Order 19, 2002): size n reads the posets on
# up to n-1 points
POSET_COUNTS = (
    1, 1, 2, 5, 16, 63, 318, 2045, 16999, 183231, 2567284, 46749427,
    1104891746, 33823827452, 1338193159771, 68275077901156, 4483130665195087,
)


class EnumerationBound(ValueError):
    pass


@cache
def unlabelled_posets(points):
    """One poset per isomorphism class on 0..points-1, as up-set bitmasks.

    Bit j of ``up[i]`` is set when i <= j.  The first of the ``_candidates``
    with each ``_poset_key`` is kept.
    """
    if points == 0:
        return ((),)
    found = {}
    for grown in _candidates(points):
        found.setdefault(_poset_key(grown), grown)
    return tuple(found.values())


def _candidates(points):
    """Posets on 0..points-1 that together reach every isomorphism class.

    Every poset has a minimal point, and removing it leaves a poset whose
    up-sets include that point's strict up-set; so adding a new minimal
    point under each up-set of each smaller class representative reaches
    every class.
    """
    new = 1 << (points - 1)
    for up in unlabelled_posets(points - 1):
        for mask in range(new):
            if all(up[i] | mask == mask for i in range(points - 1) if mask >> i & 1):
                yield up + (mask | new,)


def _poset_key(up):
    """A canonical form of the poset ``up``: two posets have the same key
    exactly when they are isomorphic.

    The points are coloured by (up-set size, down-set size), and the colours
    refined by the sorted colours of each point's up-set and down-set until
    no class splits.  Each colour is the rank of its key in sorted order, so
    an isomorphism keeps colours.  The key is the sorted colours and the
    least up-set masks over the orders that sort the points by colour,
    permuting only within a colour class.  Equal keys are the same poset
    relabelled, so the key is complete.
    """
    p = len(up)
    down = [0] * p
    for i, mask in enumerate(up):
        for j in bits(mask):
            down[j] |= 1 << i
    colours = _rank([(up[i].bit_count(), down[i].bit_count()) for i in range(p)])
    while True:
        refined = _rank([
            (colours[i], tuple(sorted(colours[j] for j in bits(up[i]))),
             tuple(sorted(colours[j] for j in bits(down[i]))))
            for i in range(p)
        ])
        if refined == colours:
            break
        colours = refined
    classes = [[i for i in range(p) if colours[i] == c] for c in range(max(colours) + 1)]

    def relabelled(parts):
        order = tuple(chain.from_iterable(parts))
        pos = [0] * p
        for a, i in enumerate(order):
            pos[i] = a
        return tuple([sum(1 << pos[j] for j in bits(up[i])) for i in order])

    return tuple(sorted(colours)), min(map(relabelled, product(*map(permutations, classes))))


@cache
def _relabellings(n):
    """Every relabelling of 0..n-1 that fixes the unit n-1, as (lut, gather).

    ``lut[x]`` is the new label of x, padded to a 256-byte ``bytes.translate``
    table, and ``gather`` picks from a flat sequence, into a tuple, the cell
    of the original table that lands on each flat cell (row-major) of the
    relabelled one.
    """
    out = []
    for perm in permutations(range(n - 1)):
        lab = perm + (n - 1,)
        inv = [0] * n
        for x, a in enumerate(lab):
            inv[a] = x
        gather = _gather([inv[a] * n + inv[b] for a in range(n) for b in range(n)])
        out.append((bytes(lab).ljust(256, b"\0"), gather))
    return tuple(out)


def _relabel(data, rel):
    """The relabelling ``rel`` of a flat table given as bytes, as a tuple of ints:
    every label translated at once, then the cells gathered into their places."""
    lut, gather = rel
    return gather(data.translate(lut))


def _orbit(flat, n):
    """The distinct unit-fixing relabellings of a flat table, in relabelling order.

    The walk rebinds ``_orbit_least`` to map each member to the orbit's least
    one for ``canonical_table``; the returned dict is not that memo.
    """
    global _orbit_least
    data = bytes(flat)
    orbit = dict.fromkeys([_relabel(data, r) for r in _relabellings(n)])
    _orbit_least = dict.fromkeys(orbit, _rows(min(orbit), n))
    return orbit


def _extension_tables(n):
    """(up, flat) for each n-element ->-subalgebra S of O(P), the down-sets of a
    poset ``up`` on k < n points, that holds the top and the meet-irreducibles.

    S lists the k meet-irreducibles P minus up(p), then n-1-k further
    down-sets in ``combinations`` order, then the top P; it is kept when
    a -> b = P minus up(a minus b) stays in S, and ``flat`` is its table by
    those indices, so the unit is n-1.
    """
    for k in range(n):
        top = (1 << k) - 1
        for up in unlabelled_posets(k):

            def above(a):
                return reduce(or_, [up[i] for i in bits(a)], 0)

            irreducible = [top & ~u for u in up]
            further = [d for d in range(top) if not above(top & ~d) & d and d not in irreducible]
            for extra in combinations(further, n - 1 - k):
                s = irreducible + list(extra) + [top]
                index = {d: i for i, d in enumerate(s)}
                flat = tuple([index.get(top & ~above(a & ~b)) for a in s for b in s])
                if None not in flat:
                    yield up, flat


def _rows(flat, n):
    return tuple(zip(*[iter(flat)] * n))


def search_valid_tables(n):
    """Yield every Hilbert-algebra table on 0..n-1 with unit n-1, each labelled table once.

    Each table of ``_extension_tables`` outside the orbits already yielded
    for its poset starts a class: it is re-validated before its orbit is
    built, and its relabellings, valid with it, are yielded unchecked.
    """
    for _, hits in groupby(_extension_tables(n), key=itemgetter(0)):
        seen = set()
        for _, hit in hits:
            if hit in seen:
                continue
            rows = _rows(hit, n)
            if axiom_violations(rows, n - 1):
                raise InvariantViolation(f"search produced an invalid table {rows}")
            # an isomorphism between two algebras extends to one between their
            # extensions, so a later table isomorphic to this one comes from
            # the same poset, where the orbit marks it seen
            orbit = _orbit(hit, n)
            seen.update(orbit)
            for flat in orbit:
                yield _rows(flat, n)


# every member of the last orbit walked by ``_orbit``, mapped to the orbit's
# least member as a table; at most (n-1)! entries
_orbit_least = {}


def canonical_table(table, one):
    """Lexicographically least relabeling of the table, unit placed last.

    Every member of an orbit under the unit-fixing relabellings has the same
    least relabelling, the orbit's minimum.  The unit is moved last and the
    table looked up in the memo of the last orbit walked; the search's walk
    of a class puts every table it yields there; a table whose unit is
    already last, as every search table's is, is only flattened.  A table
    outside the memo has its own orbit walked, once its entries are checked
    to lie in 0..n-1 (IndexError otherwise).  The result is exact for any
    table, Hilbert algebra or not; ``least_relabelling`` in
    ``tests/_oracles.py`` is the reference.
    """
    n = len(table)
    if one == n - 1:
        flat = tuple(chain.from_iterable(table))
    else:
        order = [x for x in range(n) if x != one] + [one]
        pos = [0] * n
        for i, x in enumerate(order):
            pos[x] = i
        flat = tuple([pos[table[x][y]] for x in order for y in order])
    if flat not in _orbit_least:
        if len(flat) != n * n or not set(flat) <= set(range(n)):
            raise IndexError(f"not a {n} x {n} table of entries 0..{n - 1}")
        _orbit(flat, n)
    return _orbit_least[flat]


def are_isomorphic(a, b):
    """A permutation carrying one algebra onto the other, or None."""
    return isomorphism(a.imp, a.colors, b.imp, b.colors)


class CatalogEntry(NamedTuple):
    algebra: FiniteHilbertAlgebra
    filter_count: int
    multiplier_count: int
    ce_count: int
    implication_algebra: bool
    implicative_semilattice: bool


class AlgebraCatalog:
    def __init__(self, n, entries, raw_count):
        self.n = n
        self.entries = entries
        self.raw_count = raw_count

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


class EndoMonoid:
    """All endomorphisms under composition, with ``maps[identity]`` the identity.

    ``table[i][j]``, the index of maps[i] after maps[j], is built on first
    use, and re-checks that the maps are closed under composition.
    """

    def __init__(self, maps, identity):
        self.maps = maps
        self.identity = identity

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


def composite_outside(maps, identity):
    """A composite of ``maps`` that is not one of them, or None when the maps
    are closed under composition.

    The check is that the maps are the monoid of greedy generators: each map
    not yet reached becomes one.  The right products of the generators are
    grown from the identity, as in the walk of Froidure and Pin, "Algorithms
    for computing finite semigroups" (1997): on a new generator g, each
    element x reached so far gives x after g, and each new element x gives x
    after every generator.  Every product must be one of the maps, and each
    map is reached, a generator at the latest as the identity after itself.
    That takes |maps| times |generators| compositions, not |maps|^2.
    """
    members, seen = set(maps), {identity}
    reached, gens = [identity], []
    for g in maps:
        if g in seen:
            continue
        gens.append(g)
        start, i = len(reached), 0
        while i < len(reached):
            x = reached[i]
            for k in gens if i >= start else (g,):
                h = compose(x, k)
                if h not in seen:
                    if h not in members:
                        return h
                    seen.add(h)
                    reached.append(h)
            i += 1
    return None


def endomorphism_monoid(ctx):
    """The endomorphisms of ``ctx.alg`` as a monoid, re-checked closed under
    composition by ``composite_outside``; its table is left unbuilt.

    Each map is re-checked to be an endomorphism too, so a foreign map that
    keeps the set a closed monoid is caught.
    """
    maps, identity = tuple(ctx.endomorphisms), identity_map(ctx.alg)
    if identity not in maps:
        raise InvariantViolation(f"endomorphisms miss the identity {identity}")
    for f in maps:
        if not is_endomorphism(ctx.alg, f):
            raise InvariantViolation(f"endomorphisms hold a non-endomorphism {f}")
    h = composite_outside(maps, identity)
    if h is not None:
        raise InvariantViolation(f"endomorphisms not closed under composition: {h}")
    return EndoMonoid(maps=maps, identity=maps.index(identity))


def _monoid_colors(m):
    return refine(m.table, (m.identity,))


def monoid_isomorphism(m1, m2):
    """A composition-preserving bijection of monoids, or None."""
    if len(m1) != len(m2):
        return None
    return isomorphism(m1.table, m1.colors, m2.table, m2.colors)


# ---------------------------------------------------------------------------
# cross-algebra survey


class SurveyRecord(NamedTuple):
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
    algebra, without a table: the survey builds a monoid's table only where
    another monoid has the same size.
    """
    mon = endomorphism_monoid(ctx)
    index = {f: i for i, f in enumerate(mon.maps)}
    filters, adjoint = ctx.filters.lattice, ctx.ce.lattice
    for lat in (filters, adjoint):
        lat._colors  # coloured here, once, for the survey's pairwise tests
    return SurveyRecord(
        filters=filters,
        adjoint=adjoint,
        monoid=mon,
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
