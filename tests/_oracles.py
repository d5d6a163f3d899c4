"""Independent brute-force oracles the tests check the library against.

Everything here quantifies over raw product spaces and uses only the
defining conditions, never the library's search or propagation routines.
"""

from dataclasses import dataclass
from itertools import permutations, product

from hilbertalg import (
    FiniteLattice,
    InvariantViolation,
    axiom_violations,
    class_of,
    compose,
    is_endomorphism,
    is_multiplier,
    is_subalgebra,
    pointwise_leq,
)
from hilbertalg.core import subset_key, subsets
from hilbertalg.lattice import bits


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


def pointwise_leq_scan(alg, f, g):
    return all(alg.leq[f[x]][g[x]] for x in alg.elements)


def pointwise_imp_scan(alg, f, g):
    return tuple(alg.imp[f[x]][g[x]] for x in alg.elements)


def pointwise_meet_scan(alg, f, g):
    """The pointwise meet, with None where two images have no meet."""
    return tuple(alg.meet_table[a][b] for a, b in zip(f, g))


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


def is_isotone_scan(alg, f):
    leq = alg.leq
    return all(leq[f[x]][f[y]] for x in alg.elements for y in alg.elements if leq[x][y])


def least_above_misses_scan(alg, maps, sets):
    """The two least-above loops of the fixpoint-embedding report, over maps paired with sets."""
    leq, imp = alg.leq, alg.imp
    above, landing = [], []
    for f, r in zip(maps, sets):
        for a in alg.elements:
            ups = [x for x in bits(r) if leq[a][x]]
            least = [x for x in ups if all(leq[x][y] for y in ups)]
            if len(least) != 1 or f[a] != least[0]:
                above.append((f, a))
            # the same minimum over the members of the form x -> a
            lands = [s for s in bits(r) if any(imp[x][a] == s for x in alg.elements)]
            low = [s for s in lands if all(leq[s][t] for t in lands)]
            if len(low) != 1 or f[a] != low[0]:
                landing.append((f, a))
    return above, landing


# ---------------------------------------------------------------------------
# scans that lean on the library's predicates and operations


def multipliers_bruteforce(alg):
    """All n^n self-maps filtered by the library's ``is_multiplier``."""
    return sorted(f for f in product(range(alg.n), repeat=alg.n) if is_multiplier(alg, f))


def endomorphisms_bruteforce(alg):
    """All n^n self-maps filtered by the library's ``is_endomorphism``."""
    return sorted(f for f in product(range(alg.n), repeat=alg.n) if is_endomorphism(alg, f))


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
    candidates = [h for h in carrier if pointwise_leq(alg, g, compose(f, h))]
    least = [h for h in candidates if all(pointwise_leq(alg, h, k) for k in candidates)]
    if len(least) != 1:
        raise InvariantViolation(f"subtraction has no least solution for {f}, {g}")
    return least[0]


# ---------------------------------------------------------------------------
# subsets and maps the tests name, as bitmasks and image tuples like the library's


def subalgebras(alg):
    """All subalgebras, smallest first."""
    return sorted((s for s in subsets(alg.n) if is_subalgebra(alg, s)), key=subset_key)


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


def lower_set(alg, members, a):
    """The set of x with x -> a in the filter; an ideal of the algebra."""
    imp = alg.imp
    return sum(1 << x for x in alg.elements if members >> imp[x][a] & 1)


def peirce_map(alg, p):
    """x |-> (x -> p) -> x; always a closure endomorphism."""
    imp = alg.imp
    return tuple(imp[imp[x][p]][x] for x in alg.elements)
