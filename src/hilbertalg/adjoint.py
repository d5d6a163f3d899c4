"""Finitely generated closure endomorphisms and the structures they carry.

Composites of translations form an upper semilattice with a subtraction
operation (the adjoint semilattice); over a finite algebra it exhausts all
closure endomorphisms, so ``adjoint_semilattice`` re-checks the closure
endomorphism lattice and returns it: the join is composition and the
subtraction is the lattice's residual.  The suites read a composite of
translations as the join of their carrier indices ``ce.translations`` in
``ce.lattice.join_table``, never as a composed map, and
``Structures.finitely_generated`` is the ascending indices of those joins.
The kernel map matches it with the semilattice of finitely generated
filters, whose reverse-inclusion order is an implicative semilattice
extending the algebra (the minimal Brouwerian extension), and whose ideal
lattice reproduces the filter lattice through the explicit map
kernel i |-> down-set of i.  Over a finite algebra every
filter is finitely generated, so ``minimal_brouwerian_extension``
re-checks the filter lattice and returns it: the meet is the filter join
``lattice.join_table``, implication the transposed ``lattice.residual_table``
and the embedding ``principal``.
"""

from __future__ import annotations

from .core import InvariantViolation, partial_meet, subset_key
from .lattice import bits, inclusion_order
from .multipliers import join_translation, pointwise_meet
from .report import ReportBuilder, fmt, fset


def adjoint_semilattice(ce, fg):
    """Re-check that ce is the adjoint semilattice, and return it.

    ce is the closure endomorphism lattice and fg the ascending carrier
    indices of the finitely generated closure endomorphisms of the same
    algebra.  The join is ``ce.lattice.join_table`` (composition) and the
    subtraction ``ce.lattice.residual_table``.  Checks: the carrier (composites of
    translations) is every closure endomorphism of a finite algebra; every
    subtraction exists; subtraction of translations follows the law
    (translation q) - (translation p) = translation (p -> q), compared on
    the carrier indices ``ce.translations``, so translations are closed
    under subtraction.
    """
    alg = ce.alg
    if fg != list(range(len(ce.carrier))):
        raise InvariantViolation("finitely generated closure endomorphisms miss some")
    carrier = ce.carrier
    # sub[i][j] = carrier[i] - carrier[j], the least h with carrier[i] <= carrier[j] o h;
    # composition is the join of the lattice, so that is its residual
    sub = ce.lattice.residual_table
    for i, row in enumerate(sub):
        if None in row:
            f, g = carrier[row.index(None)], carrier[i]
            raise InvariantViolation(f"subtraction has no least solution for {f}, {g}")
    imp, at = alg.imp, ce.translations
    for p in alg.elements:
        for q in alg.elements:
            if sub[at[q]][at[p]] != at[imp[p][q]]:
                raise InvariantViolation(
                    f"translation subtraction law fails at p={p}, q={q}"
                )
    return ce


def join_density_report(ctx):
    """Every closure endomorphism is the composite of translations over its kernel.

    Over an implication algebra the dual also holds: every closure
    endomorphism is the pointwise meet of join translations over its
    fixpoint set.
    """
    b = ReportBuilder("join-density")
    alg, ce = ctx.alg, ctx.ce
    join, at = ce.lattice.join_table, ce.translations
    fails = []
    for i, (f, k) in enumerate(zip(ce.carrier, ce.kernels)):
        composite = ce.identity_index
        for p in bits(k):
            composite = join[composite][at[p]]
        if composite != i:
            fails.append(fmt(map=f, kernel=fset(k)))
    b.check("translations-over-kernel", fails, detail=f"{len(ce.carrier)} maps")

    if ctx.flags.implication_algebra:
        dual_fails = []
        for f, r in zip(ce.carrier, ce.fixes):
            acc = None
            for p in bits(r):
                d = join_translation(alg, p)
                acc = d if acc is None else pointwise_meet(alg, acc, d)
            if acc != f:
                dual_fails.append(fmt(map=f, fixpoints=fset(r)))
        b.check("join-translations-over-fixpoints", dual_fails)
    else:
        b.skip("join-translations-over-fixpoints", "applies to implication algebras only")
    return b.done()


def adjoint_iso_report(ctx):
    """Kernels identify the adjoint semilattice with the finitely generated filters."""
    b = ReportBuilder("adjoint-semilattice")
    alg, adj, fl = ctx.alg, ctx.adjoint, ctx.filters
    carrier, kernels = adj.carrier, adj.kernels

    fg_filters = {fl.closure(j) for j in fl.carrier}
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
            if kernels[adj.lattice.join_table[i][j]] != fl.join(kernels[i], kernels[j]):
                join_fails.append(fmt(f=f, g=g))
    b.check("kernel-preserves-join", join_fails)

    leq, at = adj.lattice.leq, adj.translations
    anti_fails = []
    for p in alg.elements:
        for q in alg.elements:
            if alg.le(p, q) != leq[at[q]][at[p]]:
                anti_fails.append(fmt(p=p, q=q))
        if kernels[at[p]] != fl.closure(1 << p):
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
        [] if comp == fg else [fmt(compact=len(comp), fg=len(fg))],
    )
    return b.done()


def _extension_checks(fl):
    """Failure witnesses for the implicative-semilattice laws of the extension."""
    alg, filters, embedding = fl.alg, fl.carrier, fl.principal
    meet, res = fl.lattice.join_table, fl.lattice.residual_table  # filter join; i -> j is res[j][i]
    unit = fl.index(1 << alg.one)
    fails = []
    k = len(filters)
    # contains[i][j]: filters[j] within filters[i], i.e. i <= j in the extension
    contains = tuple(zip(*fl.lattice.leq))
    for i in range(k):
        for j in range(k):
            m = meet[i][j]
            if filters[m] != fl.join(filters[i], filters[j]):
                fails.append(fmt(i=i, j=j, law="meet-is-filter-join"))
            for c in range(k):
                lhs = contains[c][res[j][i]]  # c <= (i -> j)
                rhs = contains[meet[c][i]][j]  # (c meet i) <= j
                if lhs != rhs:
                    fails.append(fmt(i=i, j=j, c=c, law="residuation"))
    if filters[unit] != 1 << alg.one:
        fails.append(fmt(law="unit", unit=unit))
    imp = alg.imp
    for p in alg.elements:
        if filters[embedding[p]] != fl.closure(1 << p):
            fails.append(fmt(p=p, law="embedding-principal"))
        for q in alg.elements:
            want = embedding[imp[p][q]]
            if res[embedding[q]][embedding[p]] != want:
                fails.append(fmt(p=p, q=q, law="embedding-implication"))
    if embedding[alg.one] != unit:
        fails.append(fmt(law="embedding-unit"))
    for i in range(k):
        # every filter is the extension-meet (= filter join) of embedded elements
        acc = 1 << alg.one
        for p in bits(filters[i]):
            acc = fl.join(acc, filters[embedding[p]])
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
    # building ctx.extension ran _extension_checks, and raises on any witness
    b.check("implicative-semilattice-laws", [], detail=f"{len(filters)} filters")

    # anti-isomorphic to the adjoint semilattice via the kernel correspondence
    by_kernel = {k: i for i, k in enumerate(ctx.ce.kernels)}
    leq = ctx.ce.lattice.leq
    anti_fails = []
    if set(by_kernel) != set(filters):
        anti_fails.append(fmt(reason="kernel range mismatch"))
    else:
        for i, ji in enumerate(filters):
            for j, jj in enumerate(filters):
                ext_le = ext.lattice.leq[j][i]  # i <= j reversed inclusion
                if ext_le != leq[by_kernel[jj]][by_kernel[ji]]:
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


def adjoint_ideals(adj):
    """The nonempty down-sets of the adjoint semilattice closed under join,
    smallest first, as bitmasks of carrier indices.

    The carrier is finite, so an ideal holds the join of all its members and
    is the down-set of that join: the ideals are the principal down-sets,
    one per element, ``lattice.down``.  Each is re-checked to be closed
    under join.  Ordered by inclusion they form the ideal lattice,
    ``FiniteLattice.from_subsets`` of the result.
    """
    join = adj.lattice.join_table
    ideals = sorted(adj.lattice.down, key=subset_key)
    for s in ideals:
        if any(not s >> join[i][j] & 1 for i in bits(s) for j in bits(s)):
            raise InvariantViolation(f"down-set {fset(s)} is not closed under join")
    return tuple(ideals)


def filter_ideal_bridge_report(ctx):
    """The filter lattice is isomorphic to the ideal lattice of the adjoint semilattice."""
    b = ReportBuilder("filter-ideal-bridge")
    adj, fl = ctx.adjoint, ctx.filters
    ideals = adjoint_ideals(adj)
    kernels, down = adj.kernels, adj.lattice.down
    # kernel i |-> down-set of i: onto both, and inclusion both ways
    onto = set(kernels) == set(fl.carrier) and set(down) == set(ideals)
    iso = onto and inclusion_order(kernels) == inclusion_order(down)
    b.check(
        "ideal-lattice-isomorphic-to-filter-lattice",
        [] if iso else [fmt(ideals=len(ideals), filters=len(fl.carrier))],
        detail=f"{len(ideals)} ideals, {len(fl.carrier)} filters",
    )
    return b.done()


def fg_ideal_report(ctx):
    """Over an implication algebra the finitely generated closure endomorphisms
    are downward closed, with the explicit construction of the generating set."""
    b = ReportBuilder("finitely-generated-ideal")
    if not ctx.flags.implication_algebra:
        b.skip("precondition", "applies to implication algebras only")
        return b.done()
    alg, ce = ctx.alg, ctx.ce
    carrier, leq = ce.carrier, ce.lattice.leq
    # CeLattice re-checks that the carrier holds the translations and their composites
    fg = ctx.finitely_generated
    b.check(
        "hereditary",
        [fmt(f=f, g=carrier[j]) for i, (f, row) in enumerate(zip(carrier, leq)) if i not in fg for j in fg if row[j]],
    )
    # for a subset p and q = {f(x) -> x : x in p}, the pair (composite over p,
    # composite over q) is the join of the pairs (at[x], at[f(x) -> x]) over x in p:
    # adding each x in turn to every subset so far gives the pairs of all 2^n subsets
    imp, join, at = alg.imp, ce.lattice.join_table, ce.translations
    q_fails = []
    for i, (f, row) in enumerate(zip(carrier, leq)):
        pairs = {(ce.identity_index, ce.identity_index)}
        for x in alg.elements:
            p_join, q_join = join[at[x]], join[at[imp[f[x]][x]]]
            pairs |= {(p_join[u], q_join[v]) for u, v in pairs}
        for p_at, q_at in sorted(pairs):
            if row[p_at] and q_at != i:
                q_fails.append(fmt(map=f, composite=carrier[p_at], q_composite=carrier[q_at]))
    b.check("explicit-generators-below-composite", q_fails)
    return b.done()
