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
each kernel and fixpoint set from ``CeLattice.kernels`` and ``fixes``,
check each identification on its explicit map, never by an isomorphism
search, and compare two closure endomorphisms by ``ce.lattice.leq``.
No report composes translation maps: ``fixpoint_filter_report`` reads
each fixpoint set from ``ce.fixes`` by carrier index.

The predicates the reports run most are kernels on the algebra's n x n
tables.  ``special_witness``, ``cross_meets`` and ``least_implication_misses``
are unions and intersections of masks: ``sources`` (the x with
x -> y = v), the up- and down-sets, and ``compatible_meet_pairs``.
Subset closure is a mask inclusion too: a special subset s is
translation-closed when no ``translates[x] & ~s`` is set for x in s, and a
fixpoint set r closed under compatible meets when ``cross_meets(alg, r, r)
& ~r`` is 0.  ``_least_above`` is lazy, so ``ce_from_retract`` and
``is_closure_retract`` stop at the first element with no least member above it.
``is_endomorphism`` compares the table translated through f with the
table pulled back along f, as ``bytes`` through ``luts``, while n <= 255,
and scans element by element above that; ``is_isotone`` is one loop over
the order.
``search_endomorphisms`` runs the ``multipliers.search_maps`` plan with
f(x -> y) = f(x) -> f(y) as its rule.  Two reports test their maps at
once before they list witnesses: ``idempotent_stable`` decides for each
endomorphism whether its composites with the idempotent ones stay
idempotent from masks of those idempotents, and ``ce_structure_report``
tests the endomorphism laws (``endomorphism_laws``) in byte lanes and
runs its loop only where the test fails.  ``CeLattice`` raises unless its
carrier is closed under composition and pointwise meet, so
``ce_structure_report`` takes both closures from its construction and
reads the order characterizations off ``ce.lattice``.  The reports read
what ``structures.Structures`` shares instead of building it again: the
closure endomorphism of each filter (``monomial_ce``), which also gives
each class maximum, and of each special closure retract (``retract_ce``),
which also gives each least-above image, and the cross meets of each pair
of fixpoint sets (``cross_meets``).  Specialness is tested where a report
reads it: ``isotone_kernel_special_report`` tests the fixpoint set of each
multiplier, and ``ce_from_retract`` each subset it is given.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import takewhile
from operator import and_, eq, getitem, is_not, or_

from .core import (
    InvariantViolation,
    compatible_meet,
    partial_join,
    subset_key,
)
from .filters import class_of, is_filter, monomial_max
from .lattice import FiniteLattice, _Least, bits
from .multipliers import (
    MapLattice,
    fixpoints,
    join_translation,
    kernel,
    map_plan,
    pointwise_imp,
    search_maps,
    translation,
)
from .report import ReportBuilder, fmt, fset


# ---------------------------------------------------------------------------
# predicates


def is_endomorphism(alg, f):
    """f(x -> y) = f(x) -> f(y) for all x, y: while n <= 255, the table
    translated through f equals the table pulled back along f, as bytes."""
    if alg.n > 255:
        imp = alg.imp
        return all(f[imp[x][y]] == imp[f[x]][f[y]] for x in alg.elements for y in alg.elements)
    image, luts = bytes(f), alg.luts
    pulled = b"".join([image.translate(luts[v]) for v in f])
    return alg.flat.translate(image.ljust(256, b"\0")) == pulled


def is_isotone(alg, f):
    """x <= y gives f(x) <= f(y)."""
    leq = alg.leq
    return all(leq[f[x]][f[y]] for x in alg.elements for y in alg.elements if leq[x][y])


def is_extensive(alg, f):
    return all(map(getitem, alg.leq, f))


def is_idempotent(f):
    """f(f(x)) = f(x) for every x, i.e. f fixes its image."""
    return all(map(eq, map(f.__getitem__, f), f))


def is_closure_operator(alg, f):
    return is_extensive(alg, f) and is_idempotent(f) and is_isotone(alg, f)


def is_closure_endomorphism(alg, f):
    return is_endomorphism(alg, f) and is_closure_operator(alg, f)


# ---------------------------------------------------------------------------
# endomorphisms


def search_endomorphisms(alg):
    """All endomorphisms, propagating f(x -> y) = f(x) -> f(y) from chosen values."""
    plan = map_plan(alg, [[True] * alg.n] * alg.n, homomorphic=True)
    return search_maps(alg, plan, partial(is_endomorphism, alg), "endomorphism")


# ---------------------------------------------------------------------------
# the lattice of closure endomorphisms


class CeLattice(MapLattice):
    """All closure endomorphisms, i.e. the isotone multipliers of ``mult``,
    with the lattice structure that ``MapLattice`` builds and re-checks;
    ``kernels[i]`` and ``fixes[i]`` are the kernel and fixpoints of ``carrier[i]``.

    After the lattice, construction re-checks that every translation
    x |-> p -> x, a closure endomorphism of every algebra, is in the carrier,
    and keeps its index there as ``translations[p]``.
    """

    def __init__(self, alg, mult):
        carrier = (f for f in mult.carrier if is_isotone(alg, f))
        super().__init__(alg, carrier, "closure endomorphisms")
        at = []
        for p in alg.elements:
            t = translation(alg, p)
            if t not in self._index:
                raise InvariantViolation(f"{self.what}: translation by {p} is not in the carrier: {t}")
            at.append(self._index[t])
        self.translations = tuple(at)
        self.kernels = tuple(kernel(alg, f) for f in self.carrier)
        self.fixes = tuple(fixpoints(alg, f) for f in self.carrier)


def all_closure_endos(alg, mult):
    return CeLattice(alg, mult)


# ---------------------------------------------------------------------------
# kernels and monomial filters


class NonMonomialFilterError(ValueError):
    """A congruence class of the filter has no greatest element."""

    def __init__(self, element, class_members):
        # args are the constructor's, so that pickle rebuilds the error when a
        # --jobs worker sends it back to the parent
        super().__init__(element, class_members)
        self.element = element
        self.class_members = class_members

    def __str__(self):
        return f"class of {self.element} = {fset(self.class_members)} has no greatest element"


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


def monomial_roundtrip(ctx, filter_sets):
    """(failures, skips) for the filter -> closure endomorphism -> kernel round trip.

    Filters with a class lacking a greatest element cannot be round-tripped;
    they are reported as skips carrying the structured witness.  No valid
    finite algebra produces one, but the path stays total.  Each closure
    endomorphism is read from ``ctx.monomial_ce``.
    """
    failures, skips = [], []
    for members in filter_sets:
        try:
            f = ctx.monomial_ce(members)
        except NonMonomialFilterError as e:
            skips.append(fmt(filter=fset(members), reason=str(e)))
            continue
        if kernel(ctx.alg, f) != members:
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
    """For each element in turn, lazily, the least member above it, or None
    where there is none; a caller can stop at the first None."""
    up = [row[alg.one] for row in alg.preimages]
    return map(_Least(up).__getitem__, map(members.__and__, up))


def is_closure_retract(alg, members):
    return None not in _least_above(alg, members)


def special_witness(alg, members):
    """A pair (a, b) violating specialness, or None.

    Special: for every a and every b in the subset, some p has p -> a in the
    subset while p -> b = b.  Those p are the union of ``sources[a][v]`` over
    the members v, and ``sources[b][b]``; the first a, then the first b,
    whose masks are disjoint is the witness.
    """
    src, ms = alg.sources, bits(members)
    fixing = [(b, src[b][b]) for b in ms]
    for a, col in enumerate(src):
        lands = 0
        for v in ms:
            lands |= col[v]
        for b, fix in fixing:
            if not lands & fix:
                return (a, b)
    return None


def is_special(alg, members):
    return special_witness(alg, members) is None


def special_closure_retracts(alg, special):
    """The closure retracts among the given special subsets, smallest first."""
    return sorted((s for s in special if is_closure_retract(alg, s)), key=subset_key)


def ce_from_retract(alg, members):
    """The closure endomorphism whose fixpoint set is the given subset.

    members must be a special closure retract; each element is sent to the
    least member above it.  Domain errors carry the offending element or
    pair.
    """
    f = tuple(takewhile(partial(is_not, None), _least_above(alg, members)))
    if len(f) < alg.n:
        raise NotClosureRetractError(len(f))
    pair = special_witness(alg, members)
    if pair is not None:
        raise NotSpecialError(pair)
    if not is_closure_endomorphism(alg, f) or fixpoints(alg, f) != members:
        raise InvariantViolation(
            f"minima over {fset(members)} do not form a closure endomorphism"
        )
    return f


def cross_meets(alg, s, t):
    """All compatible meets of cross pairs; the join of fixpoint sets.

    The pairs of s x t, as bits x * n + y, meet ``compatible_meet_pairs[m]``
    exactly when m is one of those compatible meets.
    """
    n = alg.n
    pairs = 0
    for x in bits(s):
        pairs |= t << (x * n)
    out = 0
    for m, found in enumerate(alg.compatible_meet_pairs):
        if found & pairs:
            out |= 1 << m
    return out


def least_implication_misses(alg, maps, sets):
    """The (f, a), for each map f paired with a subset r of ``sets`` in order,
    where f(a) is not the one least member of r of the form x -> a.

    The least members of a mask are the members in the down-set
    ``sources[y][one]`` of every member y.
    """
    down = [col[alg.one] for col in alg.sources]
    translates = alg.translates
    misses = []
    for f, r in zip(maps, sets):
        for a in alg.elements:
            low = lands = r & translates[a]
            for y in bits(lands):
                low &= down[y]
            if low != 1 << f[a]:
                misses.append((f, a))
    return misses


# ---------------------------------------------------------------------------
# reports


def endomorphism_law_fails(alg, f):
    """The endomorphism, bound-transfer and meet-preservation failures of one
    map f, instance by instance."""
    out = []
    imp, leq = alg.imp, alg.leq
    for x in alg.elements:
        for y in alg.elements:
            if f[imp[x][y]] != imp[f[x]][f[y]]:
                out.append(fmt(map=f, law="endomorphism", x=x, y=y))
            for z in alg.elements:
                if leq[x][imp[y][z]] and not leq[f[x]][imp[f[y]][f[z]]]:
                    out.append(fmt(map=f, law="bound-transfer", x=x, y=y, z=z))
            m = compatible_meet(alg, x, y)
            if m is not None:
                fm = compatible_meet(alg, f[x], f[y])
                if fm is None or f[m] != fm:
                    out.append(fmt(map=f, law="meet-preservation", x=x, y=y))
    return out


def endomorphism_laws(alg):
    """A test that ``endomorphism_law_fails`` of a map is empty, or None above
    255 elements or where some element is no x -> y.

    Once f is an endomorphism, f(y) -> f(z) is f(y -> z), so bound transfer
    says that x <= u gives f(x) <= f(u) for every u of the form y -> z:
    with every element of that form, that f is isotone.  Meet preservation
    compares, in byte lanes, the compatible meet table translated through
    f with the same table pulled back along f, where the meet exists.
    """
    n = alg.n
    if n > 255 or len(set(alg.flat)) != n:
        return None
    rows = [bytes(255 if m is None else m for m in row) for row in alg.compatible_meet_table]
    meets = b"".join(rows)
    luts = [row + b"\xff" * (256 - n) for row in rows]
    defined = int.from_bytes(meets.translate(b"\xff" * 255 + b"\0"), "little")

    def hold(f):
        if not (is_endomorphism(alg, f) and is_isotone(alg, f)):
            return False
        image = bytes(f)
        mapped = meets.translate(image + b"\xff" * (256 - n))
        pulled = b"".join([image.translate(luts[v]) for v in f])
        return not (int.from_bytes(mapped, "little") ^ int.from_bytes(pulled, "little")) & defined

    return hold


def ce_structure_report(ctx):
    """Closure of the carrier, lattice structure, and the dual construction route.

    Building ``ctx.ce`` re-checked that the carrier is closed under
    composition and pointwise meet, and that those are the join and meet
    of its pointwise order ``ce.lattice.leq``, so the two closure checks
    pass by construction, and the order characterizations read that order
    and the join table.  The endomorphism laws run ``endomorphism_laws``
    first, a map at a time, and the loop lists the witnesses of each map
    that does not pass it.
    """
    b = ReportBuilder("ce-structure")
    alg, ce = ctx.alg, ctx.ce
    carrier = ce.carrier
    kernels, fixes = ce.kernels, ce.fixes
    # building ctx.ce re-checked both closures (CarrierLattice.closed), and raises on any witness
    b.check("closed-under-composition", [])
    b.check("closed-under-pointwise-meet", [])
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
    # the second route to the carrier: the closure endomorphism of each monomial filter
    via_filters = sorted(map(ctx.monomial_ce, ctx.monomials))
    b.check(
        "isotone-multipliers-equal-monomial-route",
        [] if list(carrier) == via_filters else [fmt(direct=len(carrier), via=len(via_filters))],
    )

    # f <= g; f after g is g; kernel of f within kernel of g; fixpoints of g within those of f
    order_fails = []
    for i, (f, row, joins) in enumerate(zip(carrier, ce.lattice.leq, ce.lattice.join_table)):
        for j, (g, le, h) in enumerate(zip(carrier, row, joins)):
            if le != (h == j):
                order_fails.append(fmt(f=f, g=g, law="composition"))
            if le != (not kernels[i] & ~kernels[j]):
                order_fails.append(fmt(f=f, g=g, law="kernels"))
            if le != (not fixes[j] & ~fixes[i]):
                order_fails.append(fmt(f=f, g=g, law="fixpoints"))
    b.check("order-characterizations", order_fails)

    law_fails = []
    hold = endomorphism_laws(alg)
    for f in carrier:
        if hold is None or not hold(f):
            law_fails += endomorphism_law_fails(alg, f)
    b.check("endomorphism-laws", law_fails)

    b.check(
        "fixpoints-relative-subsemilattice",
        [fmt(map=f) for f, r in zip(carrier, fixes) if cross_meets(alg, r, r) & ~r],
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
        # is_closure_endomorphism, with its isotone test read from iso
        ce = iso and is_endomorphism(alg, f) and is_extensive(alg, f) and is_idempotent(f)
        if not iso == ker == spe == ce:
            fails.append(fmt(map=f, isotone=iso, kernel_filter=ker, special=spe, closure=ce))
    b.check("three-way-equivalence", fails, detail=f"{len(mult.carrier)} multipliers")
    return b.done()


def idempotent_stable(maps, idems):
    """For each map f of ``maps``, whether t after f is idempotent for every t of ``idems``.

    t after f is idempotent when t(f(w)) = w for each w = t(v), v in the
    image of f.  With ``sent[w][v]`` the mask of the t with t(v) = w, that
    says: for each w, the union of ``sent[w][v]`` over the image of f has
    no t outside ``sent[w][f(w)]``.  The unions are taken once per image.
    """
    if not idems:
        return [True] * len(maps)
    n = len(idems[0])
    sent = [[0] * n for _ in range(n)]
    for i, t in enumerate(idems):
        for v, w in enumerate(t):
            sent[w][v] |= 1 << i
    outside = [tuple(~m for m in column) for column in sent]
    unions = {}
    out = []
    for f in maps:
        image = frozenset(f)
        union = unions.get(image)
        if union is None:
            union = unions[image] = [reduce(or_, map(column.__getitem__, image)) for column in sent]
        out.append(not any(map(and_, union, map(getitem, outside, f))))
    return out


def idempotent_composition_report(ctx):
    """Closure operators among endomorphisms are exactly those whose composite
    with every idempotent endomorphism stays idempotent (``idempotent_stable``)."""
    b = ReportBuilder("idempotent-composition")
    alg, endos = ctx.alg, ctx.endomorphisms
    idems = [t for t in endos if is_idempotent(t)]
    fails = []
    for f, stable in zip(endos, idempotent_stable(endos, idems)):
        closure = is_closure_operator(alg, f)
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
            for a, m in enumerate(ctx.monomial_ce(k))
            if f[a] != m
        ],
    )
    b.check(
        "roundtrip-from-endomorphism",
        [fmt(map=f) for f, k in zip(carrier, kernels) if ctx.monomial_ce(k) != f],
    )
    failures, skips = monomial_roundtrip(ctx, fl.carrier)
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
            if fixes[ce.lattice.meet_table[i][j]] != ctx.cross_meets(fixes[i], fixes[j]):
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
            for f, r, row in zip(carrier, fixes, ce.lattice.leq)
            for g, s, le in zip(carrier, fixes, row)
            if le != (not s & ~r)
        ],
    )
    retracts = ctx.retracts
    b.check(
        "range-is-special-closure-retracts",
        [] if set(fixes) == set(retracts) else [fmt(fixes=len(set(fixes)), retracts=len(retracts))],
        detail=f"{len(retracts)} special closure retracts",
    )
    b.check(
        "image-is-least-above",
        [
            fmt(map=f, a=a)
            for f, r in zip(carrier, fixes)
            for a, m in enumerate(ctx.retract_ce(r))
            if f[a] != m
        ],
    )
    b.check(
        "least-above-equals-least-implication-image",
        [fmt(map=f, a=a) for f, a in least_implication_misses(alg, carrier, fixes)],
    )
    b.check(
        "roundtrip-from-retract",
        [fmt(retract=fset(r)) for r in retracts if fixpoints(alg, ctx.retract_ce(r)) != r],
    )
    b.check(
        "roundtrip-from-endomorphism",
        [fmt(map=f) for f, r in zip(carrier, fixes) if ctx.retract_ce(r) != f],
    )

    # translates[y] holds every x -> y, so a translation-closed s is a subalgebra once it holds the unit
    translates, alpha_fails = alg.translates, []
    for s in ctx.special_subsets:
        if s:
            if any(translates[x] & ~s for x in bits(s)):
                alpha_fails.append(fmt(subset=fset(s), reason="not translation closed"))
            elif not s >> alg.one & 1:
                alpha_fails.append(fmt(subset=fset(s), reason="not a subalgebra"))
    b.check("special-subsets-translation-closed", alpha_fails)

    # explicit duality between monomial filters and special closure retracts,
    # an anti-isomorphism when onto the retracts and reversing inclusion both ways
    monomials = ctx.monomials
    dual_fails = []
    pair = dict(zip(ce.kernels, fixes))
    reverses = set(pair) == set(monomials)
    if not reverses:
        dual_fails.append(fmt(reason="kernel range mismatch"))
    else:
        for j in monomials:
            for k in monomials:
                if (not j & ~k) != (not pair[k] & ~pair[j]):
                    reverses = False
                    dual_fails.append(fmt(j=fset(j), k=fset(k)))
                if pair.get(fl.join(j, k)) != pair[j] & pair[k]:
                    dual_fails.append(fmt(j=fset(j), k=fset(k), law="join-to-meet"))
                if pair.get(j & k) != ctx.cross_meets(pair[j], pair[k]):
                    dual_fails.append(fmt(j=fset(j), k=fset(k), law="meet-to-join"))
    b.check("monomial-retract-duality", dual_fails)

    anti = reverses and set(pair.values()) == set(retracts)
    b.check(
        "lattice-anti-isomorphism",
        [] if anti else [fmt(monomial=len(monomials), retracts=len(retracts))],
    )
    rl = FiniteLattice.from_subsets(retracts)
    lattice_op_fails = []
    ridx = {r: i for i, r in enumerate(retracts)}
    for i, r in enumerate(retracts):
        for j, s in enumerate(retracts):
            if rl.meet_table[i][j] != ridx.get(r & s):
                lattice_op_fails.append(fmt(r=fset(r), s=fset(s), law="meet"))
            if rl.join_table[i][j] != ridx.get(ctx.cross_meets(r, s)):
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
    leq, imp = ce.lattice.leq, alg.imp
    index = {f: i for i, f in enumerate(carrier)}

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

    at = ce.translations
    heredity_fails = []
    for i, (f, row) in enumerate(zip(carrier, leq)):
        for p, t in enumerate(at):
            if row[t] and i != at[imp[f[p]][p]]:
                heredity_fails.append(fmt(map=f, p=p))
    b.check("below-translation-is-translation", heredity_fails)

    meet, join = ce.lattice.meet_table, ce.lattice.join_table
    comp_fails = []
    duality_fails = []
    for i, (f, r) in enumerate(zip(carrier, fixes)):
        neg = tuple(imp[f[x]][x] for x in alg.elements)
        if neg not in index:
            comp_fails.append(fmt(map=f, reason="complement not closure endomorphism"))
            continue
        j = index[neg]
        if meet[i][j] != ce.identity_index or join[i][j] != ce.top_index:
            comp_fails.append(fmt(map=f, complement=neg))
        if r != kernels[j]:
            duality_fails.append(fmt(map=f, complement=neg))
    b.check("boolean-complement", comp_fails)
    b.check("fixpoints-equal-complement-kernel", duality_fails)

    deltas = [join_translation(alg, p) for p in alg.elements]
    delta_fails, upward_fails = [], []
    for p, d in enumerate(deltas):
        if d not in index:
            delta_fails.append(fmt(p=p, reason="not a closure endomorphism"))
            upward_fails.append(fmt(p=p, reason="not a closure endomorphism"))
            continue
        if any(d[x] != partial_join(alg, p, x) for x in alg.elements):
            delta_fails.append(fmt(p=p, map=d))
        upward_fails += [fmt(p=p, map=f) for f, le in zip(carrier, leq[index[d]]) if le and f not in deltas]
    b.check("join-translation-is-join-with-p", delta_fails)
    b.check("join-translations-upward-closed", upward_fails)
    embed_fails = []
    for p, dp in enumerate(deltas):
        for q, dq in enumerate(deltas):
            if p != q and dp == dq:
                embed_fails.append(fmt(p=p, q=q, reason="not injective"))
            if pointwise_imp(alg, dp, dq) != deltas[imp[p][q]]:
                embed_fails.append(fmt(p=p, q=q, reason="implication not preserved"))
    b.check("join-translation-embedding", embed_fails)

    nabla_fails = []
    for f, ff in zip(carrier, fixes):
        for g, fg in zip(carrier, fixes):
            if ctx.cross_meets(ff, fg) != fl.join(ff, fg):
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
    alg, flags, ce = ctx.alg, ctx.flags, ctx.ce
    routes = {
        "all": ce.fixes,
        "finitely-generated": (ce.fixes[i] for i in ctx.finitely_generated),
        "translations": (ce.fixes[t] for t in ce.translations),
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
