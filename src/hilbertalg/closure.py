"""Closure endomorphisms and the two correspondences that describe them.

A closure endomorphism is an endomorphism — a map with
``f(x -> y) = f(x) -> f(y)`` — that is also a closure operator (extensive,
isotone, idempotent); equivalently an isotone multiplier.  The set of all
of them is a bounded distributive lattice with composition as join and
pointwise meet as meet.  Kernels identify it with the lattice of monomial
filters; fixpoint sets identify it, order-reversed, with the lattice of
special closure retracts, where the retract condition asks every up-set
``{r in R : a <= r}`` for a least element.  Both identifications are
implemented with their inverses, and every surrounding theorem has a
report function that checks it exhaustively on a given algebra.  Element
subsets are int bitmasks, so inclusion is ``not a & ~b``; the reports read
each kernel and fixpoint set from ``CeLattice.kernels`` and ``fixes``.
"""

from __future__ import annotations

from functools import partial

from .core import (
    InvariantViolation,
    compatible_meet,
    generated,
    is_relative_subsemilattice,
    is_subalgebra,
    partial_join,
    subset_key,
    subsets,
)
from .filters import class_of, is_filter, monomial_max
from .lattice import FiniteLattice, _Least, bits, masks
from .multipliers import (
    MapLattice,
    compose,
    constant_one,
    fixpoints,
    identity_map,
    join_translation,
    kernel,
    pointwise_imp,
    pointwise_leq,
    pointwise_meet,
    search_maps,
    translation,
)
from .report import ReportBuilder, fmt, fset


# ---------------------------------------------------------------------------
# predicates


def is_endomorphism(alg, f):
    imp = alg.imp
    return all(f[imp[x][y]] == imp[f[x]][f[y]] for x in alg.elements for y in alg.elements)


def is_isotone(alg, f):
    leq = alg.leq
    return all(leq[f[x]][f[y]] for x in alg.elements for y in alg.elements if leq[x][y])


def is_extensive(alg, f):
    leq = alg.leq
    return all(leq[x][f[x]] for x in alg.elements)


def is_idempotent(f):
    return all(f[v] == v for v in set(f))


def is_closure_operator(alg, f):
    return is_extensive(alg, f) and is_idempotent(f) and is_isotone(alg, f)


def is_closure_endomorphism(alg, f):
    return is_endomorphism(alg, f) and is_closure_operator(alg, f)


# ---------------------------------------------------------------------------
# endomorphisms


def search_endomorphisms(alg):
    """All endomorphisms, propagating f(x -> y) = f(x) -> f(y) from chosen values."""
    imp = alg.imp

    def implied(a, b, img, known):
        for x in known:
            fx = img[x]
            yield imp[x][a], imp[fx][b]
            yield imp[a][x], imp[b][fx]

    anything = [[True] * alg.n] * alg.n
    return search_maps(alg, anything, implied, partial(is_endomorphism, alg), "endomorphism")


# ---------------------------------------------------------------------------
# the lattice of closure endomorphisms


class CeLattice(MapLattice):
    """All closure endomorphisms, i.e. the isotone multipliers of ``mult``,
    with the lattice structure that ``MapLattice`` builds and re-checks;
    ``kernels[i]`` and ``fixes[i]`` are the kernel and fixpoints of ``carrier[i]``."""

    def __init__(self, alg, mult):
        carrier = (f for f in mult.carrier if is_isotone(alg, f))
        super().__init__(alg, carrier, "closure endomorphisms")
        self.kernels = tuple(kernel(alg, f) for f in self.carrier)
        self.fixes = tuple(fixpoints(alg, f) for f in self.carrier)


def all_closure_endos(alg, mult):
    return CeLattice(alg, mult)


def finitely_generated_ce(alg):
    """Closure endomorphisms that are finite compositions of translations."""
    gens = [translation(alg, p) for p in alg.elements]
    return sorted(generated(identity_map(alg), gens, compose))


# ---------------------------------------------------------------------------
# kernels and monomial filters


class NonMonomialFilterError(ValueError):
    """A congruence class of the filter has no greatest element."""

    def __init__(self, element, class_members):
        self.element = element
        self.class_members = class_members
        super().__init__(
            f"class of {element} = {fset(class_members)} has no greatest element"
        )


def ce_from_monomial_filter(alg, members):
    """The closure endomorphism whose kernel is the given monomial filter.

    Sends each element to the greatest element of its congruence class.
    Raises NonMonomialFilterError naming the offending class when some class
    has no greatest element, and ValueError when members is not a filter.
    """
    if not is_filter(alg, members):
        raise ValueError(f"{fset(members)} is not a filter")
    img = []
    for a in alg.elements:
        m = monomial_max(alg, members, a)
        if m is None:
            raise NonMonomialFilterError(a, class_of(alg, members, a))
        img.append(m)
    f = tuple(img)
    if not is_closure_endomorphism(alg, f) or kernel(alg, f) != members:
        raise InvariantViolation(
            f"class maxima of {fset(members)} do not form a closure endomorphism"
        )
    return f


def closure_endos_via_filters(alg, monomials):
    """Second route to the carrier: one closure endomorphism per monomial filter."""
    return sorted(ce_from_monomial_filter(alg, j) for j in monomials)


def monomial_roundtrip(alg, filter_sets):
    """(failures, skips) for the filter -> closure endomorphism -> kernel round trip.

    Filters with a class lacking a greatest element cannot be round-tripped;
    they are reported as skips carrying the structured witness.  No valid
    finite algebra produces one, but the path stays total.
    """
    failures, skips = [], []
    for members in filter_sets:
        try:
            f = ce_from_monomial_filter(alg, members)
        except NonMonomialFilterError as e:
            skips.append(fmt(filter=fset(members), reason=str(e)))
            continue
        if kernel(alg, f) != members:
            failures.append(fmt(filter=fset(members), map=f))
    return failures, skips


# ---------------------------------------------------------------------------
# special closure retracts and fixpoint sets


class NotClosureRetractError(ValueError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"no least element above {element} in the subset")


class NotSpecialError(ValueError):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(
            f"no p with p -> {pair[0]} in the subset and p -> {pair[1]} fixed"
        )


def _least_above(alg, members):
    """For each element, the least member above it, or None where there is none."""
    up = masks(alg.leq)
    least = _Least(up)
    return [least[u & members] for u in up]


def is_closure_retract(alg, members):
    return None not in _least_above(alg, members)


def special_witness(alg, members):
    """A pair (a, b) violating specialness, or None.

    Special: for every a and every b in the subset, some p has p -> a in the
    subset while p -> b = b.
    """
    imp = alg.imp
    for a in alg.elements:
        for bm in bits(members):
            if not any(
                members >> imp[p][a] & 1 and imp[p][bm] == bm for p in alg.elements
            ):
                return (a, bm)
    return None


def is_special(alg, members):
    return special_witness(alg, members) is None


def special_subsets(alg):
    """Every special subset, the empty one included, in binary counting order."""
    return [s for s in subsets(alg.n) if is_special(alg, s)]


def special_closure_retracts(alg, special):
    """The closure retracts among the given special subsets, smallest first."""
    return sorted((s for s in special if is_closure_retract(alg, s)), key=subset_key)


def ce_from_retract(alg, members):
    """The closure endomorphism whose fixpoint set is the given subset.

    members must be a special closure retract; each element is sent to the
    least member above it.  Domain errors carry the offending element or
    pair.
    """
    least = _least_above(alg, members)
    if None in least:
        raise NotClosureRetractError(least.index(None))
    pair = special_witness(alg, members)
    if pair is not None:
        raise NotSpecialError(pair)
    f = tuple(least)
    if not is_closure_endomorphism(alg, f) or fixpoints(alg, f) != members:
        raise InvariantViolation(
            f"minima over {fset(members)} do not form a closure endomorphism"
        )
    return f


def cross_meets(alg, s, t):
    """All compatible meets of cross pairs; the join of fixpoint sets."""
    meets = alg.compatible_meet_table
    ys = list(bits(t))
    out = 0
    for x in bits(s):
        row = meets[x]
        for y in ys:
            m = row[y]
            if m is not None:
                out |= 1 << m
    return out


# ---------------------------------------------------------------------------
# reports


def ce_structure_report(ctx):
    """Closure of the carrier, lattice structure, and the dual construction route."""
    b = ReportBuilder("ce-structure")
    alg, ce = ctx.alg, ctx.ce
    carrier = ce.carrier
    members = set(carrier)

    b.check(
        "closed-under-composition",
        [fmt(f=f, g=g) for f in carrier for g in carrier if compose(f, g) not in members],
    )
    b.check(
        "closed-under-pointwise-meet",
        [fmt(f=f, g=g) for f in carrier for g in carrier if pointwise_meet(alg, f, g) not in members],
    )
    b.check(
        "bounded",
        []
        if ce.lattice.bottom == ce.identity_index and ce.lattice.top == ce.top_index
        else [fmt(bottom=ce.lattice.bottom, top=ce.lattice.top)],
    )
    b.check(
        "distributive",
        [] if ce.lattice.is_distributive else [fmt(size=len(carrier))],
        detail=f"{len(carrier)} closure endomorphisms",
    )
    via_filters = closure_endos_via_filters(alg, ctx.monomials)
    b.check(
        "isotone-multipliers-equal-monomial-route",
        [] if list(carrier) == via_filters else [fmt(direct=len(carrier), via=len(via_filters))],
    )

    order_fails = []
    kernels, fixes = ce.kernels, ce.fixes
    for i, f in enumerate(carrier):
        for j, g in enumerate(carrier):
            le = pointwise_leq(alg, f, g)
            if le != (compose(f, g) == g):
                order_fails.append(fmt(f=f, g=g, law="composition"))
            if le != (not kernels[i] & ~kernels[j]):
                order_fails.append(fmt(f=f, g=g, law="kernels"))
            if le != (not fixes[j] & ~fixes[i]):
                order_fails.append(fmt(f=f, g=g, law="fixpoints"))
    b.check("order-characterizations", order_fails)

    law_fails = []
    imp, leq = alg.imp, alg.leq
    for f in carrier:
        for x in alg.elements:
            for y in alg.elements:
                if f[imp[x][y]] != imp[f[x]][f[y]]:
                    law_fails.append(fmt(map=f, law="endomorphism", x=x, y=y))
                for z in alg.elements:
                    if leq[x][imp[y][z]] and not leq[f[x]][imp[f[y]][f[z]]]:
                        law_fails.append(fmt(map=f, law="bound-transfer", x=x, y=y, z=z))
                m = compatible_meet(alg, x, y)
                if m is not None:
                    fm = compatible_meet(alg, f[x], f[y])
                    if fm is None or f[m] != fm:
                        law_fails.append(fmt(map=f, law="meet-preservation", x=x, y=y))
    b.check("endomorphism-laws", law_fails)

    b.check(
        "fixpoints-relative-subsemilattice",
        [fmt(map=f) for f, r in zip(carrier, fixes) if not is_relative_subsemilattice(alg, r)],
    )
    return b.done()


def isotone_kernel_special_report(ctx):
    """For every multiplier: isotone <=> kernel is a filter <=> fixpoints special."""
    b = ReportBuilder("isotone-kernel-special")
    alg, mult = ctx.alg, ctx.multipliers
    fails = []
    for f in mult.carrier:
        iso = is_isotone(alg, f)
        ker = is_filter(alg, kernel(alg, f))
        spe = is_special(alg, fixpoints(alg, f))
        ce = is_closure_endomorphism(alg, f)
        if not iso == ker == spe == ce:
            fails.append(fmt(map=f, isotone=iso, kernel_filter=ker, special=spe, closure=ce))
    b.check("three-way-equivalence", fails, detail=f"{len(mult.carrier)} multipliers")
    return b.done()


def idempotent_composition_report(ctx):
    """Closure operators among endomorphisms are exactly those whose composite
    with every idempotent endomorphism stays idempotent."""
    b = ReportBuilder("idempotent-composition")
    alg, endos = ctx.alg, ctx.endomorphisms
    idems = [t for t in endos if is_idempotent(t)]
    fails = []
    for f in endos:
        closure = is_closure_operator(alg, f)
        stable = all(is_idempotent(compose(t, f)) for t in idems)
        if closure != stable:
            fails.append(fmt(map=f, closure=closure, stable=stable))
    b.check(
        "closure-iff-idempotent-composites",
        fails,
        detail=f"{len(endos)} endomorphisms, {len(idems)} idempotent",
    )
    return b.done()


def kernel_embedding_report(ctx):
    """The kernel map embeds the closure endomorphisms into the filter lattice."""
    b = ReportBuilder("kernel-embedding")
    alg, ce, fl = ctx.alg, ctx.ce, ctx.filters
    carrier, kernels = ce.carrier, ce.kernels

    b.check(
        "kernels-are-filters",
        [fmt(map=f) for f, k in zip(carrier, kernels) if not is_filter(alg, k)],
    )
    b.check(
        "injective",
        [] if len(set(kernels)) == len(kernels) else [fmt(maps=len(carrier), kernels=len(set(kernels)))],
    )
    meet_fails, join_fails = [], []
    for i, f in enumerate(carrier):
        for j, g in enumerate(carrier):
            if kernels[ce.lattice.meet_table[i][j]] != kernels[i] & kernels[j]:
                meet_fails.append(fmt(f=f, g=g))
            if kernels[ce.lattice.join_table[i][j]] != fl.join(kernels[i], kernels[j]):
                join_fails.append(fmt(f=f, g=g))
    b.check("meet-to-intersection", meet_fails)
    b.check("join-to-filter-join", join_fails)

    monomials = set(ctx.monomials)
    b.check(
        "range-is-monomial-filters",
        []
        if set(kernels) == monomials
        else [fmt(kernels=len(set(kernels)), monomial=len(monomials))],
    )
    b.check(
        "image-is-class-maximum",
        [
            fmt(map=f, a=a)
            for f, k in zip(carrier, kernels)
            for a in alg.elements
            if f[a] != monomial_max(alg, k, a)
        ],
    )
    b.check(
        "roundtrip-from-endomorphism",
        [fmt(map=f) for f, k in zip(carrier, kernels) if ce_from_monomial_filter(alg, k) != f],
    )
    failures, skips = monomial_roundtrip(alg, fl.carrier)
    b.check("roundtrip-from-filter", failures)
    for s in skips:
        b.skip("roundtrip-from-filter-skipped", s)
    b.check(
        "count-matches-filters",
        [] if len(carrier) == len(fl.carrier) else [fmt(ce=len(carrier), filters=len(fl.carrier))],
        detail=f"{len(carrier)} closure endomorphisms, {len(fl.carrier)} filters",
    )
    return b.done()


def fixpoint_embedding_report(ctx):
    """The fixpoint map reverses the lattice onto the special closure retracts."""
    b = ReportBuilder("fixpoint-embedding")
    alg, ce, fl = ctx.alg, ctx.ce, ctx.filters
    carrier, fixes = ce.carrier, ce.fixes

    comp_fails, meet_fails = [], []
    for i, f in enumerate(carrier):
        for j, g in enumerate(carrier):
            if fixes[ce.lattice.join_table[i][j]] != fixes[i] & fixes[j]:
                comp_fails.append(fmt(f=f, g=g))
            if fixes[ce.lattice.meet_table[i][j]] != cross_meets(alg, fixes[i], fixes[j]):
                meet_fails.append(fmt(f=f, g=g))
    b.check("composition-to-intersection", comp_fails)
    b.check("meet-to-cross-meets", meet_fails)
    b.check(
        "injective",
        [] if len(set(fixes)) == len(fixes) else [fmt(maps=len(carrier))],
    )
    b.check(
        "order-reversing",
        [
            fmt(f=f, g=g)
            for f, r in zip(carrier, fixes)
            for g, s in zip(carrier, fixes)
            if pointwise_leq(alg, f, g) != (not s & ~r)
        ],
    )
    retracts = ctx.retracts
    b.check(
        "range-is-special-closure-retracts",
        [] if set(fixes) == set(retracts) else [fmt(fixes=len(set(fixes)), retracts=len(retracts))],
        detail=f"{len(retracts)} special closure retracts",
    )
    leq, imp = alg.leq, alg.imp
    min_fails = []
    image_form_fails = []
    for f, r in zip(carrier, fixes):
        for a in alg.elements:
            ups = [x for x in bits(r) if leq[a][x]]
            least = [x for x in ups if all(leq[x][y] for y in ups)]
            if len(least) != 1 or f[a] != least[0]:
                min_fails.append(fmt(map=f, a=a))
            # the same minimum over the members of the form x -> a
            landing = [s for s in bits(r) if any(imp[x][a] == s for x in alg.elements)]
            low = [s for s in landing if all(leq[s][t] for t in landing)]
            if len(low) != 1 or f[a] != low[0]:
                image_form_fails.append(fmt(map=f, a=a))
    b.check("image-is-least-above", min_fails)
    b.check("least-above-equals-least-implication-image", image_form_fails)
    b.check(
        "roundtrip-from-retract",
        [fmt(retract=fset(r)) for r in retracts if fixpoints(alg, ce_from_retract(alg, r)) != r],
    )
    b.check(
        "roundtrip-from-endomorphism",
        [fmt(map=f) for f, r in zip(carrier, fixes) if ce_from_retract(alg, r) != f],
    )

    alpha_fails = []
    for s in ctx.special_subsets:
        if s:
            if not all(s >> alg.imp[p][x] & 1 for p in alg.elements for x in bits(s)):
                alpha_fails.append(fmt(subset=fset(s), reason="not translation closed"))
            elif not is_subalgebra(alg, s):
                alpha_fails.append(fmt(subset=fset(s), reason="not a subalgebra"))
    b.check("special-subsets-translation-closed", alpha_fails)

    # explicit duality between monomial filters and special closure retracts
    monomials = ctx.monomials
    dual_fails = []
    pair = dict(zip(ce.kernels, fixes))
    if set(pair) != set(monomials):
        dual_fails.append(fmt(reason="kernel range mismatch"))
    else:
        for j in monomials:
            for k in monomials:
                if (not j & ~k) != (not pair[k] & ~pair[j]):
                    dual_fails.append(fmt(j=fset(j), k=fset(k)))
                if pair.get(fl.join(j, k)) != pair[j] & pair[k]:
                    dual_fails.append(fmt(j=fset(j), k=fset(k), law="join-to-meet"))
                if pair.get(j & k) != cross_meets(alg, pair[j], pair[k]):
                    dual_fails.append(fmt(j=fset(j), k=fset(k), law="meet-to-join"))
    b.check("monomial-retract-duality", dual_fails)

    ml = FiniteLattice.from_subsets(monomials)
    rl = FiniteLattice.from_subsets(retracts)
    b.check(
        "lattice-anti-isomorphism",
        [] if ml.anti_isomorphism(rl) is not None else [fmt(monomial=len(monomials), retracts=len(retracts))],
    )
    lattice_op_fails = []
    ridx = {r: i for i, r in enumerate(retracts)}
    for i, r in enumerate(retracts):
        for j, s in enumerate(retracts):
            if rl.meet_table[i][j] != ridx.get(r & s):
                lattice_op_fails.append(fmt(r=fset(r), s=fset(s), law="meet"))
            if rl.join_table[i][j] != ridx.get(cross_meets(alg, r, s)):
                lattice_op_fails.append(fmt(r=fset(r), s=fset(s), law="join"))
    b.check("retract-lattice-operations", lattice_op_fails)
    return b.done()


def implication_extras_report(ctx):
    """The sharper structure available over an implication algebra."""
    b = ReportBuilder("implication-extras")
    if not ctx.flags.implication_algebra:
        b.skip("precondition", "applies to implication algebras only")
        return b.done()
    alg, mult, ce, fl = ctx.alg, ctx.multipliers, ctx.ce, ctx.filters
    carrier, kernels, fixes = ce.carrier, ce.kernels, ce.fixes
    imp = alg.imp

    b.check(
        "every-multiplier-isotone",
        [] if set(mult.carrier) == set(carrier) else [fmt(multipliers=len(mult.carrier), ce=len(carrier))],
    )
    join_fails = []
    for i, f in enumerate(carrier):
        for j, g in enumerate(carrier):
            h = carrier[ce.lattice.join_table[i][j]]
            if any(h[x] != partial_join(alg, f[x], g[x]) for x in alg.elements):
                join_fails.append(fmt(f=f, g=g))
    b.check("join-is-pointwise", join_fails)

    transfer_fails = []
    for f in carrier:
        for x in alg.elements:
            for y in alg.elements:
                v = partial_join(alg, x, y)
                expect = partial_join(alg, f[x], f[y])
                if not (f[v] == expect == partial_join(alg, x, f[y]) == partial_join(alg, f[x], y)):
                    transfer_fails.append(fmt(map=f, x=x, y=y))
    b.check("join-transfer", transfer_fails)

    b.check(
        "fixpoints-are-filters",
        [fmt(map=f) for f, r in zip(carrier, fixes) if not is_filter(alg, r)],
    )

    heredity_fails = []
    for f in carrier:
        for p in alg.elements:
            if pointwise_leq(alg, f, translation(alg, p)):
                if f != translation(alg, imp[f[p]][p]):
                    heredity_fails.append(fmt(map=f, p=p))
    b.check("below-translation-is-translation", heredity_fails)

    comp_fails = []
    duality_fails = []
    for f, r in zip(carrier, fixes):
        neg = tuple(imp[f[x]][x] for x in alg.elements)
        if neg not in set(carrier):
            comp_fails.append(fmt(map=f, reason="complement not closure endomorphism"))
            continue
        if pointwise_meet(alg, f, neg) != identity_map(alg) or compose(f, neg) != constant_one(alg):
            comp_fails.append(fmt(map=f, complement=neg))
        if r != kernels[ce.index(neg)]:
            duality_fails.append(fmt(map=f, complement=neg))
    b.check("boolean-complement", comp_fails)
    b.check("fixpoints-equal-complement-kernel", duality_fails)

    delta_fails = []
    deltas = set()
    for p in alg.elements:
        d = join_translation(alg, p)
        deltas.add(d)
        if d not in set(carrier):
            delta_fails.append(fmt(p=p, reason="not a closure endomorphism"))
            continue
        if any(d[x] != partial_join(alg, p, x) for x in alg.elements):
            delta_fails.append(fmt(p=p, map=d))
    b.check("join-translation-is-join-with-p", delta_fails)
    b.check(
        "join-translations-upward-closed",
        [
            fmt(p=p, map=f)
            for p in alg.elements
            for f in carrier
            if pointwise_leq(alg, join_translation(alg, p), f) and f not in deltas
        ],
    )
    embed_fails = []
    for p in alg.elements:
        for q in alg.elements:
            dp, dq = join_translation(alg, p), join_translation(alg, q)
            if p != q and dp == dq:
                embed_fails.append(fmt(p=p, q=q, reason="not injective"))
            if pointwise_imp(alg, dp, dq) != join_translation(alg, imp[p][q]):
                embed_fails.append(fmt(p=p, q=q, reason="implication not preserved"))
    b.check("join-translation-embedding", embed_fails)

    nabla_fails = []
    for f, ff in zip(carrier, fixes):
        for g, fg in zip(carrier, fixes):
            if cross_meets(alg, ff, fg) != fl.join(ff, fg):
                nabla_fails.append(fmt(f=f, g=g))
    b.check("fixpoint-join-is-filter-join", nabla_fails)

    comp_lattice_fails = []
    if set(kernels) != set(fixes):
        comp_lattice_fails.append(fmt(kernels=len(set(kernels)), fixes=len(set(fixes))))
    universe = (1 << alg.n) - 1
    for f, kf, ff in zip(carrier, kernels, fixes):
        if kf & ff != 1 << alg.one or fl.join(kf, ff) != universe:
            comp_lattice_fails.append(fmt(map=f))
    b.check("kernel-fixpoint-complements", comp_lattice_fails)
    return b.done()


def fixpoint_filter_report(ctx):
    """Fixpoint sets are filters exactly over implication algebras.

    The same answer must come from all closure endomorphisms, from the
    finitely generated ones, and from the translations alone.
    """
    b = ReportBuilder("fixpoint-filter-characterization")
    alg, flags = ctx.alg, ctx.flags
    routes = {
        "all": ctx.ce.fixes,
        "finitely-generated": (fixpoints(alg, f) for f in ctx.finitely_generated),
        "translations": (fixpoints(alg, translation(alg, p)) for p in alg.elements),
    }
    answers = {"implication-algebra": flags.implication_algebra}
    for name, fixes in routes.items():
        answers[name] = all(is_filter(alg, r) for r in fixes)
    distinct = set(answers.values())
    b.check(
        "four-way-equivalence",
        [] if len(distinct) == 1 else [fmt(**answers)],
        detail=f"implication_algebra={flags.implication_algebra}",
    )
    return b.done()
