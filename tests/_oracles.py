"""Independent brute-force oracles the tests check the library against.

Everything here quantifies over raw product spaces and uses only the
defining conditions, never the library's search or propagation routines.
"""

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, permutations, product

from hilbertalg import (
    FiniteLattice,
    InvariantViolation,
    axiom_violations,
    class_of,
    compatible_meet,
    compose,
    fixpoints,
    identity_map,
    is_closure_endomorphism,
    is_endomorphism,
    is_filter,
    is_isotone,
    is_multiplier,
    kernel,
    translation,
    validate_hilbert,
)
from hilbertalg.closure import is_special
from hilbertalg.core import subset_key
from hilbertalg.enumeration import _relabellings, unlabelled_posets
from hilbertalg.lattice import bits, isomorphism, refine
from hilbertalg.report import ReportBuilder, fmt, fset


def all_subsets(n):
    for bits in range(1 << n):
        yield frozenset(i for i in range(n) if bits >> i & 1)


def mask(elements):
    """The bitmask of an element subset, the library's representation of it."""
    return sum(1 << x for x in set(elements))


def frozenset_key(s):
    """Sort key listing frozenset subsets smallest first, then by sorted members."""
    return (len(s), sorted(s))


def filters_brute(alg):
    """All subsets containing the unit and closed under detachment."""
    out = []
    for s in all_subsets(alg.n):
        if alg.one not in s:
            continue
        if all(y in s for x in s for y in alg.elements if alg.imp[x][y] in s):
            out.append(s)
    return sorted(out, key=frozenset_key)


def multipliers_brute(alg):
    imp = alg.imp
    return sorted(
        f
        for f in product(range(alg.n), repeat=alg.n)
        if all(f[imp[x][y]] == imp[x][f[y]] for x in alg.elements for y in alg.elements)
    )


def endomorphisms_brute(alg):
    imp = alg.imp
    return sorted(
        f
        for f in product(range(alg.n), repeat=alg.n)
        if all(f[imp[x][y]] == imp[f[x]][f[y]] for x in alg.elements for y in alg.elements)
    )


def quotient(alg, members):
    """A/F for the filter F given as a bitmask, as (table, one): its elements
    are the congruence classes ``class_of`` gives, in the order of their
    least elements, each acting through that element."""
    at, reps = [None] * alg.n, []
    for a in alg.elements:
        if at[a] is None:
            cls = class_of(alg, members, a)
            assert all(class_of(alg, members, x) == cls for x in bits(cls)), (alg.imp, members)
            for x in bits(cls):
                at[x] = len(reps)
            reps.append(a)
    imp = alg.imp
    return [[at[imp[x][y]] for y in reps] for x in reps], at[alg.one]


def embedding_count(table, one, alg):
    """The number of injective homomorphisms from the algebra ``table`` with
    unit ``one`` into alg, by backtracking.

    The elements take values in turn, the unit first, each a value unused so
    far; each instance x -> y = z is checked at the step that assigns the
    last of x, y and z.
    """
    k, imp = len(table), alg.imp
    order = [one] + [x for x in range(k) if x != one]
    step = {x: i for i, x in enumerate(order)}
    checks = [[] for _ in order]
    for x in range(k):
        for y in range(k):
            z = table[x][y]
            checks[max(step[x], step[y], step[z])].append((x, y, z))
    img = [None] * k

    def extend(i, used):
        if i == k:
            return 1
        total = 0
        for v in alg.elements:
            if not used >> v & 1:
                img[order[i]] = v
                if all(img[z] == imp[img[x]][img[y]] for x, y, z in checks[i]):
                    total += extend(i + 1, used | 1 << v)
        return total

    return extend(0, 0)


def embedding_count_brute(table, one, alg):
    """``embedding_count`` over every injective map of the elements into alg."""
    k, imp = len(table), alg.imp
    return sum(
        all(g[table[x][y]] == imp[g[x]][g[y]] for x in range(k) for y in range(k))
        for g in permutations(alg.elements, k)
    )


def endomorphism_count(alg, filter_sets):
    """#End(alg) from the filters of alg, given as bitmasks, without a map search.

    A Hilbert algebra is 1-regular: f(x) = f(y) exactly when x -> y and
    y -> x are in the kernel F = f^-1(1), a filter.  So every endomorphism is
    the quotient map onto A/F followed by an embedding A/F -> A, one for
    each (F, embedding), and #End(A) is the sum over F of the embeddings.
    """
    return sum(embedding_count(*quotient(alg, f), alg) for f in filter_sets)


def closure_endos_brute(alg):
    """Direct definition: endomorphism + extensive + isotone + idempotent."""
    imp, leq = alg.imp, alg.leq
    out = []
    for f in product(range(alg.n), repeat=alg.n):
        if not all(
            f[imp[x][y]] == imp[f[x]][f[y]] for x in alg.elements for y in alg.elements
        ):
            continue
        if not all(leq[x][f[x]] for x in alg.elements):
            continue
        if not all(f[f[x]] == f[x] for x in alg.elements):
            continue
        if not all(
            leq[f[x]][f[y]] for x in alg.elements for y in alg.elements if leq[x][y]
        ):
            continue
        out.append(f)
    return sorted(out)


def meet_brute(alg, x, y):
    """Greatest lower bound by scanning every candidate."""
    leq = alg.leq
    best = None
    for c in alg.elements:
        if leq[c][x] and leq[c][y]:
            if all(leq[d][c] for d in alg.elements if leq[d][x] and leq[d][y]):
                best = c
    return best


def join_brute(alg, x, y):
    """Least upper bound by scanning every candidate."""
    leq = alg.leq
    best = None
    for c in alg.elements:
        if leq[x][c] and leq[y][c]:
            if all(leq[c][d] for d in alg.elements if leq[x][d] and leq[y][d]):
                best = c
    return best


def compatible_meet_brute(alg, x, y):
    """By definition: the common lower bound c of x and y with x <= y -> c, or None."""
    leq, imp = alg.leq, alg.imp
    found = [c for c in alg.elements if leq[c][x] and leq[c][y] and leq[x][imp[y][c]]]
    assert len(found) <= 1, f"two compatible meets for ({x}, {y})"
    return found[0] if found else None


def algebra_isomorphism_brute(a, b):
    """A unit-fixing permutation carrying a.imp onto b.imp, by scanning all of them."""
    if a.n != b.n:
        return None
    n = a.n
    rest_a = [i for i in range(n) if i != a.one]
    rest_b = [i for i in range(n) if i != b.one]
    for perm in permutations(rest_b):
        mapping = [None] * n
        mapping[a.one] = b.one
        for src, dst in zip(rest_a, perm):
            mapping[src] = dst
        if all(
            b.imp[mapping[x]][mapping[y]] == mapping[a.imp[x][y]]
            for x in range(n)
            for y in range(n)
        ):
            return mapping
    return None


def canonical_table_brute(table, one):
    """Lexicographically least relabelling with the unit placed last, by scanning every one."""
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


def poset_table(up):
    """The flat table of the poset ``up`` (up-set bitmasks) under a top unit:
    x -> y = 1 if x <= y, else y."""
    one = len(up)
    rng = range(one + 1)
    return tuple(one if y == one or x < one and up[x] >> y & 1 else y for x in rng for y in rng)


def least_relabelling(flat, n):
    """The least unit-fixing relabelling of a flat table with unit n-1.

    Candidates run over the library's ``enumeration._relabellings`` and are
    compared cell by cell in row-major order, dropped at the first cell where
    they exceed the best so far.  ``src[k]`` is the cell of the table that
    lands on cell k of the candidate, derived here from its labels alone.
    """
    best = None
    for lut, _ in _relabellings(n):
        inv = [0] * n
        for x in range(n):
            inv[lut[x]] = x
        src = [inv[a] * n + inv[b] for a in range(n) for b in range(n)]
        if best is not None:
            for s, b in zip(src, best):
                c = lut[flat[s]]
                if c != b:
                    break
            else:
                continue  # equal to the best so far
            if c > b:
                continue
        best = tuple([lut[flat[s]] for s in src])
    return best


def poset_canonical_brute(leq):
    """The least relabelled order matrix of a poset, by scanning every relabelling."""
    n = len(leq)
    best = None
    for perm in permutations(range(n)):
        out = [[False] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                out[perm[x]][perm[y]] = leq[x][y]
        cand = tuple(tuple(row) for row in out)
        if best is None or cand < best:
            best = cand
    return best


def valid_tables_brute(n, pin_axiom_cells=True):
    """All valid tables with unit n-1 by scanning raw tables.

    With pin_axiom_cells the diagonal and the unit column are fixed to the
    unit; both are directly forced by single axiom instances, so no valid
    table is lost.  Without it every one of the n^(n*n) tables is scanned.
    """
    one = n - 1
    if pin_axiom_cells:
        free = [(x, y) for x in range(n) for y in range(n) if x != y and y != one]
        out = []
        for values in product(range(n), repeat=len(free)):
            table = [[one] * n for _ in range(n)]
            for (x, y), v in zip(free, values):
                table[x][y] = v
            if not axiom_violations(table, one):
                out.append(tuple(map(tuple, table)))
        return sorted(out)
    out = []
    for values in product(range(n), repeat=n * n):
        table = [list(values[i * n : (i + 1) * n]) for i in range(n)]
        if not axiom_violations(table, one):
            out.append(tuple(map(tuple, table)))
    return sorted(out)


def axiom_violations_brute(table, one):
    """Re-derive the violation list with independent loops, in the library's order."""
    n = len(table)
    bad = []
    for x in range(n):
        if table[x][x] != one:
            bad.append(("reflexivity", (x,)))
        if table[x][one] != one:
            bad.append(("top", (x,)))
    for x in range(n):
        for y in range(n):
            if x < y and table[x][y] == one and table[y][x] == one:
                bad.append(("antisymmetry", (x, y)))
            if table[x][table[y][x]] != one:
                bad.append(("weakening", (x, y)))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[x][y] == one and table[y][z] == one and table[x][z] != one:
                    bad.append(("transitivity", (x, y, z)))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                inner = table[x][table[y][z]]
                outer = table[table[x][y]][table[x][z]]
                if table[inner][outer] != one:
                    bad.append(("exchange", (x, y, z)))
    return bad


def dual_lattice(lat):
    """The same carrier with the order reversed."""
    return FiniteLattice([[lat.leq[j][i] for j in range(lat.size)] for i in range(lat.size)])


def lattice_anti_isomorphism(a, b):
    """A bijection from the lattice a onto the lattice b reversing the order, or None.

    The reference search: ``lattice.isomorphism`` from a's join table onto
    b's meet table, each coloured by ``refine``.  The suites check their
    (anti-)isomorphisms on the paper's explicit maps instead.
    """
    meet = b.meet_table
    return isomorphism(a.join_table, refine(a.join_table), meet, refine(meet))


def isotone_kernel_special_scan(ctx):
    """``isotone_kernel_special_report`` with each verdict computed on its own,
    the specialness verdict by ``special_witness_scan`` and the closure verdict
    by ``is_closure_endomorphism``."""
    b = ReportBuilder("isotone-kernel-special")
    alg, carrier = ctx.alg, ctx.multipliers.carrier
    fails = []
    for f in carrier:
        iso = is_isotone(alg, f)
        ker = is_filter(alg, kernel(alg, f))
        spe = special_witness_scan(alg, fixpoints(alg, f)) is None
        ce = is_closure_endomorphism(alg, f)
        if not iso == ker == spe == ce:
            fails.append(fmt(map=f, isotone=iso, kernel_filter=ker, special=spe, closure=ce))
    b.check("three-way-equivalence", fails, detail=f"{len(carrier)} multipliers")
    return b.done()


def composite_translation(alg, elems):
    """Composition of the translations by the elements of the bitmask elems; identity for none.

    The order of composition does not matter; the kernel is the filter
    generated by the elements.  The reference for the joins of
    ``ce.translations`` that ``join-density`` and ``finitely-generated-ideal`` read.
    """
    out = identity_map(alg)
    for p in bits(elems):
        out = compose(translation(alg, p), out)
    return out


def reachable(start, gens, op):
    """Every value reachable from start by steps v -> op(v, g), g in gens, by a
    worklist: the reference for ``core.joins``, which needs op to be a join."""
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = op(v, g)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def finitely_generated_ce(alg):
    """The composites of translations as maps, sorted: the reference for
    ``Structures.finitely_generated``, which joins their carrier indices."""
    gens = [translation(alg, p) for p in alg.elements]
    return sorted(reachable(identity_map(alg), gens, compose))


def explicit_generators_scan(ctx):
    """The failures of ``explicit-generators-below-composite`` by a scan of every
    subset p, as (f, p, q) in scan order: f is below the composite over p and
    the composite over q = {f(x) -> x : x in p} is not f."""
    alg, imp = ctx.alg, ctx.alg.imp
    composites = [composite_translation(alg, p) for p in range(1 << alg.n)]
    fails = []
    for f in ctx.ce.carrier:
        for p, c in enumerate(composites):
            if pointwise_leq_scan(alg, f, c):
                q = mask(imp[f[x]][x] for x in bits(p))
                if composites[q] != f:
                    fails.append((f, p, q))
    return fails


def adjoint_ideals_brute(adj):
    """Nonempty join-closed down-sets of the adjoint semilattice, smallest first.

    Closes the principal down-sets under union, which lists every down-set,
    and keeps those that contain the join of any two of their members.
    """
    k = len(adj.carrier)
    leq = adj.lattice.leq
    down = [frozenset(j for j in range(k) if leq[j][i]) for i in range(k)]
    seen = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        s = frontier.pop()
        for d in down:
            u = s | d
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    ideals = [
        s for s in seen if s and all(adj.lattice.join_table[i][j] in s for i in s for j in s)
    ]
    return sorted(ideals, key=frozenset_key)


# The element-by-element scans the library's bitmask and row-at-a-time
# kernels replaced; each gives the same result and raises the same error.


def bits_scan(mask):
    """The indices of the set bits of mask, lowest first, one at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_partial_order_scan(leq):
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


def cover_pairs_scan(leq):
    """Pairs (i, j), in row-major order, with i strictly below j and no k strictly between them."""
    n = len(leq)
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and leq[i][j]
        and not any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(n))
    ]


def bound_table_scan(leq, upper):
    """For every pair, the lowest common bound whose own bounds hold all common ones, or None."""
    n = len(leq)
    rel = leq if upper else tuple(zip(*leq))
    beyond = [sum(1 << k for k in range(n) if rel[i][k]) for i in range(n)]

    def best(common):
        return next((k for k in range(n) if common >> k & 1 and not common & ~beyond[k]), None)

    return tuple(tuple(best(beyond[i] & beyond[j]) for j in range(n)) for i in range(n))


def is_distributive_scan(lat):
    n = lat.size
    jn, mt = lat.join_table, lat.meet_table
    return all(
        mt[i][jn[j][k]] == jn[mt[i][j]][mt[i][k]]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def residual_table_scan(lat):
    """The meet of every h with b <= a v h, where that meet is itself such an h, else None."""
    n, leq, jn, mt = lat.size, lat.leq, lat.join_table, lat.meet_table

    def least(b, a):
        m = lat.top
        for h in range(n):
            if leq[b][jn[a][h]]:
                m = mt[m][h]
        return m if leq[b][jn[a][m]] else None

    return tuple(tuple(least(b, a) for a in range(n)) for b in range(n))


def compatible_meet_table_scan(alg):
    leq, imp, meet, rng = alg.leq, alg.imp, alg.meet_table, alg.elements

    def compatible(x, y):
        found = [c for c in rng if leq[c][x] and leq[c][y] and leq[x][imp[y][c]]]
        if len(found) > 1:
            raise InvariantViolation(
                f"two compatible meets for ({x}, {y}): {found[0]} and {found[1]}"
            )
        if found and found[0] != meet[x][y]:
            raise InvariantViolation(
                f"compatible meet {found[0]} of ({x}, {y}) differs from the meet"
            )
        return found[0] if found else None

    return tuple(tuple(compatible(x, y) for y in rng) for x in rng)


def compose_scan(f, g):
    return tuple(f[v] for v in g)


def composition_table_scan(maps):
    """The index of f after g for every pair of the maps, None where the
    composite is not one of them: the full table that an endomorphism
    monoid's closure under composition was once re-checked on."""
    index = {f: i for i, f in enumerate(maps)}
    return tuple(tuple(index.get(compose_scan(f, g)) for g in maps) for f in maps)


def pointwise_leq_scan(alg, f, g):
    return all(alg.leq[f[x]][g[x]] for x in alg.elements)


def pointwise_imp_scan(alg, f, g):
    return tuple(alg.imp[f[x]][g[x]] for x in alg.elements)


def pointwise_meet_scan(alg, f, g):
    """The pointwise meet, with None where two images have no meet."""
    return tuple(alg.meet_table[a][b] for a, b in zip(f, g))


def multiplier_laws_scan(ctx):
    """``multiplier_calculus_report`` with every law, (f) to (i) too, tested for
    each single (f, g, x), in the order the report lists its witnesses.

    The laws, for all multipliers f, g and elements x:
      (a) f1 = 1                      (b) x <= fx
      (c) fx = (fx -> x) -> x         (d) fx = (fx -> x) -> fx
      (e) ffx = fx                    (f) fx = (fx -> gx) -> fx
      (g) gfx = (fx -> x) -> gx       (h) gfx = fgx
      (i) gfx = (fx -> gx) -> gx
    """
    alg, mult = ctx.alg, ctx.multipliers
    imp, one = alg.imp, alg.one
    leq = alg.leq
    b = ReportBuilder("multiplier-calculus")
    fails = {law: [] for law in "abcdefghi"}
    for f in mult.carrier:
        if f[one] != one:
            fails["a"].append(fmt(map=f))
        for x in alg.elements:
            fx = f[x]
            if not leq[x][fx]:
                fails["b"].append(fmt(map=f, x=x))
            if fx != imp[imp[fx][x]][x]:
                fails["c"].append(fmt(map=f, x=x))
            if fx != imp[imp[fx][x]][fx]:
                fails["d"].append(fmt(map=f, x=x))
            if f[fx] != fx:
                fails["e"].append(fmt(map=f, x=x))
        for g in mult.carrier:
            for x in alg.elements:
                fx, gx = f[x], g[x]
                if fx != imp[imp[fx][gx]][fx]:
                    fails["f"].append(fmt(f=f, g=g, x=x))
                if g[fx] != imp[imp[fx][x]][gx]:
                    fails["g"].append(fmt(f=f, g=g, x=x))
                if g[fx] != f[gx]:
                    fails["h"].append(fmt(f=f, g=g, x=x))
                if g[fx] != imp[imp[fx][gx]][gx]:
                    fails["i"].append(fmt(f=f, g=g, x=x))
    names = {
        "a": "unit-fixed",
        "b": "extensive",
        "c": "peirce-closure",
        "d": "peirce-absorption",
        "e": "idempotent",
        "f": "pair-absorption",
        "g": "composition-formula",
        "h": "commuting",
        "i": "composition-as-join",
    }
    for law in "abcdefghi":
        b.check(f"law-{law}-{names[law]}", fails[law])
    return b.done()


def ce_structure_scan(ctx):
    """``ce_structure_report`` with every pair and every law instance tested
    one at a time on the maps, in the order the report lists its witnesses.
    A pair whose pointwise meet is missing somewhere is a closure witness."""
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
        [fmt(f=f, g=g) for f in carrier for g in carrier if pointwise_meet_scan(alg, f, g) not in members],
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
    via_filters = sorted(map(ctx.monomial_ce, ctx.monomials))
    b.check(
        "isotone-multipliers-equal-monomial-route",
        [] if list(carrier) == via_filters else [fmt(direct=len(carrier), via=len(via_filters))],
    )

    order_fails = []
    kernels, fixes = ce.kernels, ce.fixes
    for i, f in enumerate(carrier):
        for j, g in enumerate(carrier):
            le = pointwise_leq_scan(alg, f, g)
            if le != (compose_scan(f, g) == g):
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


def idempotent_stable_scan(maps, idems):
    """For each map f, whether t after f is idempotent for every t of ``idems``."""
    def idempotent(g):
        return all(g[v] == v for v in set(g))

    return [all(idempotent(compose_scan(t, f)) for t in idems) for f in maps]


def pointwise_order_scan(alg, maps):
    return [[pointwise_leq_scan(alg, f, g) for g in maps] for f in maps]


def class_of_scan(alg, members, a):
    imp = alg.imp
    return sum(
        1 << b for b in alg.elements if members >> imp[a][b] & members >> imp[b][a] & 1
    )


def monomial_max_scan(alg, members, a):
    cls = list(bits(class_of_scan(alg, members, a)))
    leq = alg.leq
    tops = [m for m in cls if all(leq[x][m] for x in cls)]
    if len(tops) == 1:
        return tops[0]
    return None


def special_witness_scan(alg, members):
    imp = alg.imp
    for a in alg.elements:
        for bm in bits(members):
            if not any(
                members >> imp[p][a] & 1 and imp[p][bm] == bm for p in alg.elements
            ):
                return (a, bm)
    return None


def special_subsets_scan(alg):
    """Every special subset, by ``is_special`` on each of the 2^n masks in order."""
    return [s for s in range(1 << alg.n) if is_special(alg, s)]


def cross_meets_scan(alg, s, t):
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


def is_endomorphism_scan(alg, f):
    imp = alg.imp
    return all(f[imp[x][y]] == imp[f[x]][f[y]] for x in alg.elements for y in alg.elements)


def is_multiplier_scan(alg, f):
    imp = alg.imp
    return all(f[imp[x][y]] == imp[x][f[y]] for x in alg.elements for y in alg.elements)


def is_isotone_scan(alg, f):
    leq = alg.leq
    return all(leq[f[x]][f[y]] for x in alg.elements for y in alg.elements if leq[x][y])


def least_above_scan(alg, members):
    """For each element a, the list of least members of the subset above a:
    one where the subset is a closure retract and the order antisymmetric."""
    leq = alg.leq
    out = []
    for a in alg.elements:
        ups = [x for x in bits(members) if leq[a][x]]
        out.append([x for x in ups if all(leq[x][y] for y in ups)])
    return out


def least_implication_misses_scan(alg, maps, sets):
    """The least-implication loop of the fixpoint-embedding report, over maps paired with sets."""
    leq, imp = alg.leq, alg.imp
    misses = []
    for f, r in zip(maps, sets):
        for a in alg.elements:
            # the minimum over the members of the form x -> a
            lands = [s for s in bits(r) if any(imp[x][a] == s for x in alg.elements)]
            low = [s for s in lands if all(leq[s][t] for t in lands)]
            if len(low) != 1 or f[a] != low[0]:
                misses.append((f, a))
    return misses


# ---------------------------------------------------------------------------
# scans that lean on the library's predicates and operations


def multipliers_bruteforce(alg):
    """All n^n self-maps filtered by the library's ``is_multiplier``."""
    return sorted(f for f in product(range(alg.n), repeat=alg.n) if is_multiplier(alg, f))


def endomorphisms_bruteforce(alg):
    """All n^n self-maps filtered by the library's ``is_endomorphism``."""
    return sorted(f for f in product(range(alg.n), repeat=alg.n) if is_endomorphism(alg, f))


def search_maps_propagating(alg, allowed, implied, check, what):
    """Every self-map f with f(1) = 1 that propagation admits, sorted: the
    library's search before it ran on a fixed plan.

    Values are only branched on where not already forced; a chosen value v
    for element e must have ``allowed[e][v]``.  Assigning a -> b also
    assigns every pair of ``implied(a, b, img, known)``, where ``img`` is the
    partial map and ``known`` lists its assigned elements in order; a
    conflicting pair backtracks.  Finished maps are re-checked by ``check``,
    and one that fails it raises ``InvariantViolation`` as a non-``what``.
    """
    n = alg.n
    img = [None] * n
    known = []
    results = []

    def assign(e, v, trail):
        stack = [(e, v)]
        while stack:
            a, b = stack.pop()
            cur = img[a]
            if cur is not None:
                if cur != b:
                    return False
                continue
            img[a] = b
            trail.append(a)
            known.append(a)
            stack.extend(implied(a, b, img, known))
        return True

    def undo(trail):
        for a in trail:
            img[a] = None
            known.pop()

    def extend():
        e = next((i for i in range(n) if img[i] is None), None)
        if e is None:
            f = tuple(img)
            if not check(f):
                raise InvariantViolation(f"propagation produced a non-{what} {f}")
            results.append(f)
            return
        for v in range(n):
            if not allowed[e][v]:
                continue
            trail = []
            if assign(e, v, trail):
                extend()
            undo(trail)

    trail = []
    if assign(alg.one, alg.one, trail):
        extend()
    undo(trail)
    return sorted(results)


def multipliers_propagated(alg):
    """All multipliers, propagating f(x -> a) = x -> f(a) from extensive chosen values."""
    imp = alg.imp

    def implied(a, b, img, known):
        return ((row[a], row[b]) for row in imp)

    return search_maps_propagating(
        alg, alg.leq, implied, lambda f: is_multiplier(alg, f), "multiplier"
    )


def endomorphisms_propagated(alg):
    """All endomorphisms, propagating f(x -> y) = f(x) -> f(y) from chosen values."""
    imp = alg.imp

    def implied(a, b, img, known):
        for x in known:
            fx = img[x]
            yield imp[x][a], imp[fx][b]
            yield imp[a][x], imp[b][fx]

    anything = [[True] * alg.n] * alg.n
    return search_maps_propagating(
        alg, anything, implied, lambda f: is_endomorphism(alg, f), "endomorphism"
    )


def tables_over(up):
    """Every valid flat table whose order is the poset ``up`` under a top unit.

    The library's table search before it read the classes off minimal
    Brouwerian extensions: the order cells are pinned, every other cell
    x -> y takes some v != 1 with y <= v (weakening), and each exchange
    instance waits on the first unknown cell of its evaluation chain.
    """
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
        for t in tuple(watchers.get((x, y), ())):
            if not watch_eval(t):
                return False
        return True

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


def valid_tables_searched(n):
    """Every valid table with unit n-1, sorted: the hits of ``tables_over`` on
    each unlabelled poset of n-1 points, each expanded to its unit-fixing
    relabellings one cell at a time."""
    one = n - 1
    found = set()
    for up in unlabelled_posets(one):
        for hit in tables_over(up):
            if hit in found:
                continue
            for perm in permutations(range(one)):
                lab = perm + (one,)
                moved = [0] * (n * n)
                for x in range(n):
                    for y in range(n):
                        moved[lab[x] * n + lab[y]] = lab[hit[x * n + y]]
                found.add(tuple(moved))
    return sorted(tuple(zip(*[iter(flat)] * n)) for flat in found)


def is_filter_via_bounds(alg, members):
    """Equivalent filter test: nonempty, and x <= y -> z with x, y members forces z in."""
    if not members:
        return False
    leq, imp = alg.leq, alg.imp
    for x in members:
        for y in members:
            for z in alg.elements:
                if leq[x][imp[y][z]] and z not in members:
                    return False
    return True


def multiplier_orbit(alg, x, mult):
    """The image set {f(x) : f a multiplier}; always a block."""
    return frozenset(f[x] for f in mult.carrier)


def subtraction(alg, f, g, carrier):
    """Least h with g <= f o h, over the closure endomorphism carrier."""
    candidates = [h for h in carrier if pointwise_leq_scan(alg, g, compose(f, h))]
    least = [h for h in candidates if all(pointwise_leq_scan(alg, h, k) for k in candidates)]
    if len(least) != 1:
        raise InvariantViolation(f"subtraction has no least solution for {f}, {g}")
    return least[0]


# ---------------------------------------------------------------------------
# subsets and maps the tests name, as bitmasks and image tuples like the library's


def is_subalgebra(alg, members):
    """True iff members contains the unit and is closed under implication."""
    if not members >> alg.one & 1:
        return False
    imp, ms = alg.imp, bits(members)
    return all(members >> imp[x][y] & 1 for x in ms for y in ms)


def is_relative_subsemilattice(alg, members):
    """True iff members is closed under existing compatible meets."""
    ms = bits(members)
    for x in ms:
        for y in ms:
            m = compatible_meet(alg, x, y)
            if m is not None and not members >> m & 1:
                return False
    return True


def translation_closed_scan(alg, subsets):
    """The witnesses of ``special-subsets-translation-closed`` over the given
    subsets, with each p -> x of a member x tested on its own."""
    fails = []
    for s in subsets:
        if s:
            if not all(s >> alg.imp[p][x] & 1 for p in alg.elements for x in bits(s)):
                fails.append(fmt(subset=fset(s), reason="not translation closed"))
            elif not is_subalgebra(alg, s):
                fails.append(fmt(subset=fset(s), reason="not a subalgebra"))
    return fails


def subalgebras(alg):
    """All subalgebras, smallest first."""
    return sorted((s for s in range(1 << alg.n) if is_subalgebra(alg, s)), key=subset_key)


def block_from(alg, members, p):
    """The image set ``{x -> p : x in members}``."""
    imp = alg.imp
    return sum({1 << imp[x][p] for x in bits(members)})


def is_block(alg, members):
    """True iff members is a subalgebra that is a bounded implication algebra.

    Bounded means a least element under the inherited order; the implication
    algebra law is ``(x -> y) -> x = x`` for all members.
    """
    if not members or not is_subalgebra(alg, members):
        return False
    imp, leq = alg.imp, alg.leq
    if any(imp[imp[x][y]][x] != x for x in bits(members) for y in bits(members)):
        return False
    return any(all(leq[m][b] for b in bits(members)) for m in bits(members))


@dataclass(frozen=True)
class CongruenceClasses:
    filter: int
    classes: tuple[int, ...]


def congruence_classes(alg, members):
    """Partition of the universe by the filter congruence, re-checked to be one."""
    classes = []
    assigned = [False] * alg.n
    for a in alg.elements:
        if assigned[a]:
            continue
        cls = class_of(alg, members, a)
        if not cls >> a & 1:
            raise InvariantViolation(f"congruence class of {a} does not contain it")
        for b in bits(cls):
            if assigned[b] or class_of(alg, members, b) != cls:
                raise InvariantViolation("congruence classes do not partition the universe")
            assigned[b] = True
        classes.append(cls)
    return CongruenceClasses(members, tuple(classes))


def is_monomial_scan(alg, members):
    """True iff every congruence class of the filter has a greatest element."""
    leq = alg.leq
    return all(
        any(all(leq[x][m] for x in bits(cls)) for m in bits(cls))
        for cls in congruence_classes(alg, members).classes
    )


def lower_set(alg, members, a):
    """The set of x with x -> a in the filter; an ideal of the algebra."""
    imp = alg.imp
    return sum(1 << x for x in alg.elements if members >> imp[x][a] & 1)


def peirce_map(alg, p):
    """x |-> (x -> p) -> x; always a closure endomorphism."""
    imp = alg.imp
    return tuple(imp[imp[x][p]][x] for x in alg.elements)


# ---------------------------------------------------------------------------
# random algebras above the catalog's bound


def random_extension_algebra(rng):
    """(algebra, |O(P)|) for a random ->-subalgebra S of O(P), the down-sets
    of a random poset P, drawn from ``rng`` alone.

    P has 4 to 7 points, each pair i < j related with probability 0.3 and
    the relation closed transitively.  S is the ->-closure of the
    meet-irreducibles P \\ up(p), the top P and 0 to 3 random down-sets, with
    a -> b = P \\ up(a \\ b); its members are indexed in increasing order as
    masks, so the unit P is the last.  O(P) is then the minimal Brouwerian
    extension of S, and the filters of S correspond to the down-sets of P.
    """
    k = rng.randint(4, 7)
    top = (1 << k) - 1
    below = [[rng.random() < 0.3 for _ in range(k)] for _ in range(k)]
    up = [0] * k
    for i in reversed(range(k)):
        up[i] = 1 << i
        for j in range(i + 1, k):
            if below[i][j]:
                up[i] |= up[j]

    def imp(a, b):
        above = 0
        for i in bits(a & ~b):
            above |= up[i]
        return top & ~above

    downsets = [d for d in range(top + 1) if not any(up[i] & d for i in bits(top & ~d))]
    members = {top & ~u for u in up} | {top} | set(rng.sample(downsets, rng.randint(0, 3)))
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for b in list(members):
            for c in (imp(a, b), imp(b, a)):
                if c not in members:
                    members.add(c)
                    frontier.append(c)
    s = sorted(members)
    index = {d: i for i, d in enumerate(s)}
    table = [[index[imp(a, b)] for b in s] for a in s]
    return validate_hilbert(table, len(s) - 1), len(downsets)
