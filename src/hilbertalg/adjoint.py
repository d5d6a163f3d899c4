"""Finitely generated closure endomorphisms and the structures they carry.

Composites of translations form an upper semilattice with a subtraction
operation (the adjoint semilattice); over a finite algebra it exhausts all
closure endomorphisms.  The kernel map matches it with the semilattice of
finitely generated filters, whose reverse-inclusion order is an implicative
semilattice extending the algebra (the minimal Brouwerian extension), and
whose ideal lattice reproduces the filter lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InvariantViolation, partial_meet, subset_key, subsets
from .filters import filter_generated, filter_join
from .lattice import FiniteLattice
from .multipliers import (
    compose,
    fixpoints,
    identity_map,
    join_translation,
    kernel,
    pointwise_leq,
    pointwise_meet,
    translation,
)
from .report import ReportBuilder, fmt, fset


def composite_translation(alg, elems):
    """Composition of the translations by the given elements; identity for none.

    The order of composition does not matter; the kernel is the filter
    generated by the elements.
    """
    out = identity_map(alg)
    for p in sorted(elems):
        out = compose(translation(alg, p), out)
    return out


def subtraction(alg, f, g, carrier):
    """Least h with g <= f o h, over the closure endomorphism carrier."""
    candidates = [h for h in carrier if pointwise_leq(alg, g, compose(f, h))]
    least = [h for h in candidates if all(pointwise_leq(alg, h, k) for k in candidates)]
    if len(least) != 1:
        raise InvariantViolation(f"subtraction has no least solution for {f}, {g}")
    return least[0]


@dataclass(frozen=True)
class AdjointSemilattice:
    """Finitely generated closure endomorphisms with join and subtraction."""

    carrier: tuple
    join_table: tuple
    subtraction_table: tuple
    lattice: FiniteLattice

    def __len__(self):
        return len(self.carrier)

    def index(self, f):
        return self.carrier.index(tuple(f))


def adjoint_semilattice(ce, fg):
    """Build the adjoint semilattice and re-check its defining laws.

    ce is the closure endomorphism lattice and fg the sorted finitely
    generated closure endomorphisms of the same algebra.  Checks: the
    carrier (composites of translations) is every closure endomorphism of a
    finite algebra; subtraction of translations follows the law
    (translation q) - (translation p) = translation (p -> q); translations
    are closed under subtraction.
    """
    alg = ce.alg
    if list(ce.carrier) != fg:
        raise InvariantViolation("finitely generated closure endomorphisms miss some")
    carrier = ce.carrier
    k = len(carrier)
    index = {f: i for i, f in enumerate(carrier)}
    join_table = ce.comp_table
    sub = [
        [index[subtraction(alg, carrier[j], carrier[i], carrier)] for j in range(k)]
        for i in range(k)
    ]
    imp = alg.imp
    translations = {translation(alg, p) for p in alg.elements}
    for p in alg.elements:
        for q in alg.elements:
            got = carrier[sub[index[translation(alg, q)]][index[translation(alg, p)]]]
            if got != translation(alg, imp[p][q]):
                raise InvariantViolation(
                    f"translation subtraction law fails at p={p}, q={q}"
                )
            if got not in translations:
                raise InvariantViolation("translations not closed under subtraction")
    return AdjointSemilattice(
        carrier=carrier,
        join_table=join_table,
        subtraction_table=tuple(tuple(row) for row in sub),
        lattice=ce.lattice,
    )


def join_density_report(ctx):
    """Every closure endomorphism is the composite of translations over its kernel.

    Over an implication algebra the dual also holds: every closure
    endomorphism is the pointwise meet of join translations over its
    fixpoint set.
    """
    b = ReportBuilder("join-density")
    alg, ce = ctx.alg, ctx.ce
    fails = []
    for f in ce.carrier:
        if composite_translation(alg, kernel(alg, f)) != f:
            fails.append(fmt(map=f, kernel=fset(kernel(alg, f))))
    b.check("translations-over-kernel", fails, detail=f"{len(ce.carrier)} maps")

    if ctx.flags.implication_algebra:
        dual_fails = []
        for f in ce.carrier:
            acc = None
            for p in sorted(fixpoints(alg, f)):
                d = join_translation(alg, p)
                acc = d if acc is None else pointwise_meet(alg, acc, d)
            if acc != f:
                dual_fails.append(fmt(map=f, fixpoints=fset(fixpoints(alg, f))))
        b.check("join-translations-over-fixpoints", dual_fails)
    else:
        b.skip("join-translations-over-fixpoints", "applies to implication algebras only")
    return b.done()


def adjoint_iso_report(ctx):
    """Kernels identify the adjoint semilattice with the finitely generated filters."""
    b = ReportBuilder("adjoint-semilattice")
    alg, adj, fl = ctx.alg, ctx.adjoint, ctx.filters
    carrier = adj.carrier
    kernels = [kernel(alg, f) for f in carrier]

    fg_filters = {filter_generated(alg, j) for j in fl.filters}
    b.check(
        "all-filters-finitely-generated",
        [] if fg_filters == set(fl.filters) else [fmt(filters=len(fl.filters))],
    )
    b.check(
        "kernel-bijection",
        []
        if sorted(kernels, key=subset_key) == list(fl.filters)
        else [fmt(kernels=len(set(kernels)), filters=len(fl.filters))],
    )
    join_fails = []
    for i, f in enumerate(carrier):
        for j, g in enumerate(carrier):
            if kernel(alg, carrier[adj.join_table[i][j]]) != filter_join(alg, kernels[i], kernels[j]):
                join_fails.append(fmt(f=f, g=g))
    b.check("kernel-preserves-join", join_fails)

    anti_fails = []
    for p in alg.elements:
        for q in alg.elements:
            if alg.le(p, q) != pointwise_leq(alg, translation(alg, q), translation(alg, p)):
                anti_fails.append(fmt(p=p, q=q))
        if kernel(alg, translation(alg, p)) != filter_generated(alg, [p]):
            anti_fails.append(fmt(p=p, reason="kernel not the principal filter"))
    b.check("translations-anti-embed-the-algebra", anti_fails)
    return b.done()


def compact_elements(lat):
    """Indices of the compact elements of a finite lattice: all of them.

    An element is compact when every subset whose join dominates it has a
    finite subset whose join still dominates it.  Every subset of a finite
    lattice is itself finite, so it is its own witness.
    """
    return list(range(lat.size))


def compact_generation_report(ctx):
    """The compact elements of the closure endomorphism lattice are all of it.

    Over a finite algebra the statement has no bite (every element of a
    finite lattice is compact); the check records that the carrier, the
    compact elements and the finitely generated closure endomorphisms agree.
    """
    b = ReportBuilder("compact-generation")
    ce = ctx.ce
    comp = compact_elements(ce.lattice)
    b.check(
        "all-elements-compact",
        [] if comp == list(range(len(ce.carrier))) else [fmt(compact=len(comp), size=len(ce.carrier))],
        detail="finite lattice: compactness is automatic",
    )
    fg = ctx.finitely_generated
    b.check(
        "compact-set-is-finitely-generated",
        [] if [ce.carrier[i] for i in comp] == fg else [fmt(compact=len(comp), fg=len(fg))],
    )
    return b.done()


@dataclass(frozen=True)
class BrouwerianExtension:
    """Finitely generated filters under reverse inclusion.

    ``meet_table`` is filter join, ``imp_table`` the relative
    pseudocomplement, ``unit`` the index of {1}; ``embedding[p]`` is the
    index of the principal filter of p.
    """

    filters: tuple
    unit: int
    meet_table: tuple
    imp_table: tuple
    embedding: tuple

    def __len__(self):
        return len(self.filters)

    def index(self, members):
        return self.filters.index(frozenset(members))


def _extension_checks(alg, ext):
    """Failure witnesses for the implicative-semilattice laws of the extension."""
    fails = []
    k = len(ext.filters)
    contains = [[ext.filters[j] <= ext.filters[i] for j in range(k)] for i in range(k)]
    # reverse inclusion: i <= j in the extension iff filters[j] subset of filters[i]
    for i in range(k):
        for j in range(k):
            m = ext.meet_table[i][j]
            if ext.filters[m] != filter_join(alg, ext.filters[i], ext.filters[j]):
                fails.append(fmt(i=i, j=j, law="meet-is-filter-join"))
            for c in range(k):
                lhs = contains[c][ext.imp_table[i][j]]  # c <= (i -> j)
                rhs = contains[ext.meet_table[c][i]][j]  # (c meet i) <= j
                if lhs != rhs:
                    fails.append(fmt(i=i, j=j, c=c, law="residuation"))
    if ext.filters[ext.unit] != frozenset([alg.one]):
        fails.append(fmt(law="unit", unit=ext.unit))
    imp = alg.imp
    for p in alg.elements:
        if ext.filters[ext.embedding[p]] != filter_generated(alg, [p]):
            fails.append(fmt(p=p, law="embedding-principal"))
        for q in alg.elements:
            want = ext.embedding[imp[p][q]]
            if ext.imp_table[ext.embedding[p]][ext.embedding[q]] != want:
                fails.append(fmt(p=p, q=q, law="embedding-implication"))
    if ext.embedding[alg.one] != ext.unit:
        fails.append(fmt(law="embedding-unit"))
    for i in range(k):
        # every filter is the extension-meet (= filter join) of embedded elements
        acc = frozenset([alg.one])
        for p in sorted(ext.filters[i]):
            acc = filter_join(alg, acc, ext.filters[ext.embedding[p]])
        if acc != ext.filters[i]:
            fails.append(fmt(i=i, law="generated-by-embedded"))
    return fails


def minimal_brouwerian_extension(fl):
    """Implicative semilattice on the finitely generated filters, reverse inclusion.

    fl is the filter lattice of the algebra.  Construction re-checks the
    implicative-semilattice laws, that the principal-filter embedding
    preserves implication and the unit, and that everything is a finite meet
    of embedded elements.
    """
    alg, filters = fl.alg, fl.filters
    k = len(filters)
    index = {f: i for i, f in enumerate(filters)}
    meet_table = [[index[filter_join(alg, filters[i], filters[j])] for j in range(k)] for i in range(k)]
    imp_table = []
    for i in range(k):
        row = []
        for j in range(k):
            # least filter h (by inclusion) with filters[j] within filters[i] join h
            cands = [
                h for h in range(k)
                if filters[j] <= filter_join(alg, filters[i], filters[h])
            ]
            least = [h for h in cands if all(filters[h] <= filters[c] for c in cands)]
            if len(least) != 1:
                raise InvariantViolation(f"no relative pseudocomplement for ({i}, {j})")
            row.append(least[0])
        imp_table.append(row)
    ext = BrouwerianExtension(
        filters=filters,
        unit=index[frozenset([alg.one])],
        meet_table=tuple(tuple(r) for r in meet_table),
        imp_table=tuple(tuple(r) for r in imp_table),
        embedding=tuple(index[filter_generated(alg, [p])] for p in alg.elements),
    )
    bad = _extension_checks(alg, ext)
    if bad:
        raise InvariantViolation(f"extension laws fail: {bad[0]}")
    return ext


def brouwerian_extension_report(ctx):
    b = ReportBuilder("brouwerian-extension")
    alg, ext = ctx.alg, ctx.extension
    b.check("implicative-semilattice-laws", _extension_checks(alg, ext),
            detail=f"{len(ext.filters)} filters")

    # anti-isomorphic to the adjoint semilattice via the kernel correspondence
    carrier = ctx.ce.carrier
    by_kernel = {kernel(alg, f): f for f in carrier}
    anti_fails = []
    if set(by_kernel) != set(ext.filters):
        anti_fails.append(fmt(reason="kernel range mismatch"))
    else:
        for i, ji in enumerate(ext.filters):
            for j, jj in enumerate(ext.filters):
                ext_le = ext.filters[j] <= ext.filters[i]  # i <= j reversed inclusion
                if ext_le != pointwise_leq(alg, by_kernel[jj], by_kernel[ji]):
                    anti_fails.append(fmt(i=fset(ji), j=fset(jj)))
    b.check("anti-isomorphic-to-adjoint", anti_fails)

    if ctx.flags.implicative_semilattice:
        onto = len(set(ext.embedding)) == len(ext.filters)
        iso_fails = [] if onto else [fmt(embedded=len(set(ext.embedding)), filters=len(ext.filters))]
        for p in alg.elements:
            for q in alg.elements:
                m = partial_meet(alg, p, q)
                if ext.meet_table[ext.embedding[p]][ext.embedding[q]] != ext.embedding[m]:
                    iso_fails.append(fmt(p=p, q=q, law="meet"))
        b.check("isomorphic-to-implicative-semilattice", iso_fails)
    else:
        b.skip("isomorphic-to-implicative-semilattice",
               "applies to implicative semilattices only")
    return b.done()


def adjoint_ideal_lattice(adj):
    """Lattice of nonempty down-sets of the adjoint semilattice closed under join.

    Returns (ideals, lattice); ideals are frozensets of carrier indices.
    """
    k = len(adj.carrier)
    leq = adj.lattice.leq
    down = [frozenset(j for j in range(k) if leq[j][i]) for i in range(k)]
    found = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        cur = frontier.pop()
        for d in down:
            nxt = cur | d
            if nxt not in found:
                found.add(nxt)
                frontier.append(nxt)
    ideals = [
        s
        for s in found
        if s and all(adj.join_table[i][j] in s for i in s for j in s)
    ]
    ideals.sort(key=subset_key)
    return tuple(ideals), FiniteLattice.from_subsets(ideals)


def filter_ideal_bridge_report(ctx):
    """The filter lattice is isomorphic to the ideal lattice of the adjoint semilattice."""
    b = ReportBuilder("filter-ideal-bridge")
    ideals, ilat = adjoint_ideal_lattice(ctx.adjoint)
    fl = ctx.filters
    b.check(
        "ideal-lattice-isomorphic-to-filter-lattice",
        [] if fl.lattice.isomorphism(ilat) is not None else [fmt(ideals=len(ideals), filters=len(fl.filters))],
        detail=f"{len(ideals)} ideals, {len(fl.filters)} filters",
    )
    return b.done()


def fg_ideal_report(ctx):
    """Over an implication algebra the finitely generated closure endomorphisms
    are downward closed, with the explicit construction of the generating set."""
    if not ctx.flags.implication_algebra:
        raise ValueError("not an implication algebra")
    b = ReportBuilder("finitely-generated-ideal")
    alg, carrier = ctx.alg, ctx.ce.carrier
    fg = set(ctx.finitely_generated)
    b.check(
        "hereditary",
        [
            fmt(f=f, g=g)
            for f in carrier
            for g in fg
            if pointwise_leq(alg, f, g) and f not in fg
        ],
    )
    imp = alg.imp
    q_fails = []
    for f in carrier:
        for p in subsets(alg.n):
            if pointwise_leq(alg, f, composite_translation(alg, p)):
                q = {imp[f[x]][x] for x in p}
                if composite_translation(alg, q) != f:
                    q_fails.append(fmt(map=f, p=fset(p), q=fset(q)))
    b.check("explicit-generators-below-composite", q_fails)
    return b.done()
