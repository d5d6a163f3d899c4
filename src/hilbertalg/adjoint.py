"""Finitely generated closure endomorphisms and the structures they carry.

Composites of translations form an upper semilattice with a subtraction
operation (the adjoint semilattice); over a finite algebra it exhausts all
closure endomorphisms, so ``adjoint_semilattice`` re-checks the closure
endomorphism lattice and returns it: the join is composition and the
subtraction is the lattice's residual.  The kernel map matches it with the
semilattice of finitely generated filters, whose reverse-inclusion order is
an implicative semilattice extending the algebra (the minimal Brouwerian
extension), and whose ideal lattice reproduces the filter lattice.  Over a
finite algebra every filter is finitely generated, so
``minimal_brouwerian_extension`` re-checks the filter lattice and returns
it: the meet is the filter join ``lattice.join_table``, implication the
transposed ``lattice.residual_table`` and the embedding ``principal``.
"""

from __future__ import annotations

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


def adjoint_semilattice(ce, fg):
    """Re-check that ce is the adjoint semilattice, and return it.

    ce is the closure endomorphism lattice and fg the sorted finitely
    generated closure endomorphisms of the same algebra.  The join is
    ``ce.lattice.join_table`` (composition) and the subtraction
    ``ce.lattice.residual_table``.  Checks: the carrier (composites of
    translations) is every closure endomorphism of a finite algebra; every
    subtraction exists; subtraction of translations follows the law
    (translation q) - (translation p) = translation (p -> q); translations
    are closed under subtraction.
    """
    alg = ce.alg
    if list(ce.carrier) != fg:
        raise InvariantViolation("finitely generated closure endomorphisms miss some")
    carrier, index = ce.carrier, ce.index
    # sub[i][j] = carrier[i] - carrier[j], the least h with carrier[i] <= carrier[j] o h;
    # composition is the join of the lattice, so that is its residual
    sub = ce.lattice.residual_table
    for i, row in enumerate(sub):
        if None in row:
            f, g = carrier[row.index(None)], carrier[i]
            raise InvariantViolation(f"subtraction has no least solution for {f}, {g}")
    imp = alg.imp
    translations = {translation(alg, p) for p in alg.elements}
    for p in alg.elements:
        for q in alg.elements:
            got = carrier[sub[index(translation(alg, q))][index(translation(alg, p))]]
            if got != translation(alg, imp[p][q]):
                raise InvariantViolation(
                    f"translation subtraction law fails at p={p}, q={q}"
                )
            if got not in translations:
                raise InvariantViolation("translations not closed under subtraction")
    return ce


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

    fg_filters = {filter_generated(alg, j) for j in fl.carrier}
    b.check(
        "all-filters-finitely-generated",
        [] if fg_filters == set(fl.carrier) else [fmt(filters=len(fl.carrier))],
    )
    b.check(
        "kernel-bijection",
        []
        if sorted(kernels, key=subset_key) == list(fl.carrier)
        else [fmt(kernels=len(set(kernels)), filters=len(fl.carrier))],
    )
    join_fails = []
    for i, f in enumerate(carrier):
        for j, g in enumerate(carrier):
            if kernel(alg, carrier[adj.lattice.join_table[i][j]]) != filter_join(alg, kernels[i], kernels[j]):
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


def _extension_checks(fl):
    """Failure witnesses for the implicative-semilattice laws of the extension."""
    alg, filters, embedding = fl.alg, fl.carrier, fl.principal
    meet, res = fl.lattice.join_table, fl.lattice.residual_table  # filter join; i -> j is res[j][i]
    unit = fl.index(frozenset([alg.one]))
    fails = []
    k = len(filters)
    # contains[i][j]: filters[j] within filters[i], i.e. i <= j in the extension
    contains = tuple(zip(*fl.lattice.leq))
    for i in range(k):
        for j in range(k):
            m = meet[i][j]
            if filters[m] != filter_join(alg, filters[i], filters[j]):
                fails.append(fmt(i=i, j=j, law="meet-is-filter-join"))
            for c in range(k):
                lhs = contains[c][res[j][i]]  # c <= (i -> j)
                rhs = contains[meet[c][i]][j]  # (c meet i) <= j
                if lhs != rhs:
                    fails.append(fmt(i=i, j=j, c=c, law="residuation"))
    if filters[unit] != frozenset([alg.one]):
        fails.append(fmt(law="unit", unit=unit))
    imp = alg.imp
    for p in alg.elements:
        if filters[embedding[p]] != filter_generated(alg, [p]):
            fails.append(fmt(p=p, law="embedding-principal"))
        for q in alg.elements:
            want = embedding[imp[p][q]]
            if res[embedding[q]][embedding[p]] != want:
                fails.append(fmt(p=p, q=q, law="embedding-implication"))
    if embedding[alg.one] != unit:
        fails.append(fmt(law="embedding-unit"))
    for i in range(k):
        # every filter is the extension-meet (= filter join) of embedded elements
        acc = frozenset([alg.one])
        for p in sorted(filters[i]):
            acc = filter_join(alg, acc, filters[embedding[p]])
        if acc != filters[i]:
            fails.append(fmt(i=i, law="generated-by-embedded"))
    return fails


def minimal_brouwerian_extension(fl):
    """Re-check the filter lattice fl, under reverse inclusion, as the extension; return fl.

    Checks that every relative pseudocomplement exists, the
    implicative-semilattice laws, that the principal-filter embedding
    preserves implication and the unit, and that everything is a finite
    meet of embedded elements.
    """
    # i -> j: the least filter h with filters[j] within filters[i] join h, residual [j][i]
    for i, row in enumerate(zip(*fl.lattice.residual_table)):
        if None in row:
            raise InvariantViolation(f"no relative pseudocomplement for ({i}, {row.index(None)})")
    bad = _extension_checks(fl)
    if bad:
        raise InvariantViolation(f"extension laws fail: {bad[0]}")
    return fl


def brouwerian_extension_report(ctx):
    b = ReportBuilder("brouwerian-extension")
    alg, ext = ctx.alg, ctx.extension
    filters, embedding = ext.carrier, ext.principal
    b.check("implicative-semilattice-laws", _extension_checks(ext),
            detail=f"{len(filters)} filters")

    # anti-isomorphic to the adjoint semilattice via the kernel correspondence
    carrier = ctx.ce.carrier
    by_kernel = {kernel(alg, f): f for f in carrier}
    anti_fails = []
    if set(by_kernel) != set(filters):
        anti_fails.append(fmt(reason="kernel range mismatch"))
    else:
        for i, ji in enumerate(filters):
            for j, jj in enumerate(filters):
                ext_le = ext.lattice.leq[j][i]  # i <= j reversed inclusion
                if ext_le != pointwise_leq(alg, by_kernel[jj], by_kernel[ji]):
                    anti_fails.append(fmt(i=fset(ji), j=fset(jj)))
    b.check("anti-isomorphic-to-adjoint", anti_fails)

    if ctx.flags.implicative_semilattice:
        onto = len(set(embedding)) == len(filters)
        iso_fails = [] if onto else [fmt(embedded=len(set(embedding)), filters=len(filters))]
        for p in alg.elements:
            for q in alg.elements:
                m = partial_meet(alg, p, q)
                if ext.lattice.join_table[embedding[p]][embedding[q]] != embedding[m]:
                    iso_fails.append(fmt(p=p, q=q, law="meet"))
        b.check("isomorphic-to-implicative-semilattice", iso_fails)
    else:
        b.skip("isomorphic-to-implicative-semilattice",
               "applies to implicative semilattices only")
    return b.done()


def adjoint_ideal_lattice(adj):
    """Lattice of nonempty down-sets of the adjoint semilattice closed under join.

    The carrier is finite, so an ideal holds the join of all its members and
    is the down-set of that join: the ideals are the principal down-sets,
    one per element.  Each is re-checked to be closed under join.  Returns
    (ideals, lattice); ideals are frozensets of carrier indices.
    """
    k = len(adj.carrier)
    leq, join = adj.lattice.leq, adj.lattice.join_table
    ideals = sorted((frozenset(j for j in range(k) if leq[j][i]) for i in range(k)), key=subset_key)
    for s in ideals:
        if any(join[i][j] not in s for i in s for j in s):
            raise InvariantViolation(f"down-set {fset(s)} is not closed under join")
    return tuple(ideals), FiniteLattice.from_subsets(ideals)


def filter_ideal_bridge_report(ctx):
    """The filter lattice is isomorphic to the ideal lattice of the adjoint semilattice."""
    b = ReportBuilder("filter-ideal-bridge")
    ideals, ilat = adjoint_ideal_lattice(ctx.adjoint)
    fl = ctx.filters
    b.check(
        "ideal-lattice-isomorphic-to-filter-lattice",
        [] if fl.lattice.isomorphism(ilat) is not None else [fmt(ideals=len(ideals), filters=len(fl.carrier))],
        detail=f"{len(ideals)} ideals, {len(fl.carrier)} filters",
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
