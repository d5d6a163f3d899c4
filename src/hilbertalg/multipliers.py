"""Multipliers: self-maps with f(x -> y) = x -> f(y).

The named families here are the translation x |-> p -> x and the join
translation x |-> (p -> x) -> x, together with the identity and the
constant unit map.  The full set of multipliers carries pointwise
implication, pointwise meet and composition; construction of
``MultiplierAlgebra`` re-verifies the expected structure (a bounded
implication algebra under pointwise implication, and a Boolean lattice with
composition as join and pointwise meet as meet).

``CarrierLattice`` is the one re-checked lattice on a carrier: the
multiplier, closure endomorphism (``MapLattice``) and filter lattices are
its subclasses.

``search_maps`` finds both the multipliers and (for ``closure``) the
endomorphisms.  Both are fixed by their values on a generating set, and
the search propagates from each value it branches on the same cells
whatever the value is, so ``map_plan`` compiles it once per algebra into
a ``MapPlan``: the elements to branch on, and at each, the cells derived
and the cells checked.  ``search_maps`` walks the plan depth first, with
the checks on the branch value alone as one mask of admitted values;
every map it finds is re-checked, and the identity must be among them.

``_order_lattice`` and ``_is_implication_algebra`` are module-level
``functools.cache`` functions shared by every multiplier algebra of a
process.  Across a catalog the multiplier algebras share a handful of
index-level tables (4 distinct order matrices and 4 distinct implication
tables among the 95 algebras of size 6, 7 and 7 among the 550 of size 7),
so the re-checks that read only such a table run once per distinct table:
the ``FiniteLattice`` of the order matrix, with its cached
``is_distributive``, and the ``validate_hilbert`` and ``classify`` verdict
on the implication table.  Each is keyed by the whole table; ``cache``
keeps no exception, so a failed re-check is raised again on every call.
So each cache holds one entry per distinct table the process has met.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache, partial, reduce
from operator import and_, getitem, itemgetter
from typing import NamedTuple

from .core import InvariantViolation, classify, validate_hilbert
from .lattice import FiniteLattice, LatticeError, bits, masks
from .report import ReportBuilder, fmt


def is_multiplier(alg, f):
    """f(x -> y) = x -> f(y) for all x, y: while n <= 255, the table translated
    through f equals f translated through every row, as bytes."""
    if alg.n > 255:
        imp = alg.imp
        return all(f[imp[x][y]] == imp[x][f[y]] for x in alg.elements for y in alg.elements)
    image = bytes(f)
    through = b"".join([image.translate(lut) for lut in alg.luts])
    return alg.flat.translate(image.ljust(256, b"\0")) == through


def identity_map(alg):
    return tuple(alg.elements)


def constant_one(alg):
    return (alg.one,) * alg.n


def translation(alg, p):
    """x |-> p -> x; always a closure endomorphism."""
    return tuple(alg.imp[p])


def join_translation(alg, p):
    """x |-> (p -> x) -> x; the join with p in an implication algebra."""
    imp = alg.imp
    return tuple(imp[imp[p][x]][x] for x in alg.elements)


def compose(f, g):
    """x |-> f(g(x))."""
    return tuple(map(f.__getitem__, g))


def pointwise_imp(alg, f, g):
    return tuple(map(getitem, map(alg.imp.__getitem__, f), g))


def pointwise_order(alg, maps):
    """The order matrix of ``maps`` under the pointwise order.

    Each map f is packed into ints with one block of n bits per element x:
    ``onehot`` sets bit f(x) of block x, ``upcode`` sets the bits of every
    v >= f(x).  Then f <= g iff ``onehot(g) & ~upcode(f) == 0``.
    """
    n = alg.n
    up = masks(alg.leq)
    onehot = [sum(1 << (x * n + v) for x, v in enumerate(f)) for f in maps]
    upcode = [sum(up[v] << (x * n) for x, v in enumerate(f)) for f in maps]
    return [[not g & ~u for g in onehot] for u in upcode]


def pointwise_meet(alg, f, g):
    """Pointwise meet; total on multipliers, whose images are always compatible."""
    out = tuple(map(getitem, map(alg.meet_table.__getitem__, f), g))
    if None in out:
        x = out.index(None)
        raise InvariantViolation(
            f"images {f[x]}, {g[x]} at {x} have no meet; not multiplier images"
        )
    return out


def kernel(alg, f):
    """The bitmask of the elements sent to the unit."""
    return sum(1 << x for x, v in enumerate(f) if v == alg.one)


def fixpoints(alg, f):
    """The bitmask of the fixed elements; for a multiplier this is also its range."""
    return sum(1 << x for x, v in enumerate(f) if v == x)


class Step(NamedTuple):
    """One level of a ``MapPlan``: branch ``element`` on each of ``values``,
    then set each derived cell and test each checked cell.

    ``derived`` and ``checks`` hold triples (cell, x, y): the map's value at
    ``cell`` is read from x and y as the plan's rule says.  A derived cell
    is set from its one triple, in order, so x and y are set before it; a
    checked cell, set at this level or before, must equal its triple.
    """

    element: int
    values: tuple
    derived: tuple
    checks: tuple


class MapPlan(NamedTuple):
    """The fixed branch and propagation steps of a map search on one algebra.

    With ``homomorphic`` the rule of a triple (cell, x, y) is
    f(cell) = f(x) -> f(y), for endomorphisms; without it, it is
    f(cell) = x -> f(y), for multipliers.
    """

    homomorphic: bool
    steps: tuple


def map_plan(alg, allowed, homomorphic):
    """The ``MapPlan`` of the propagating search for maps with f(1) = 1.

    The search sets f(1) = 1 first, then branches on the least element not
    yet set, on each value v with ``allowed[e][v]``.  Each element a that
    gets a value propagates every cell its rule reaches: x -> a and a -> x
    for each x set before it (homomorphic), or x -> a for every element x.
    The elements set are the closure of those branched on under these
    steps, whatever values are chosen, so the branch elements, and each
    level's derived and checked cells, are fixed per algebra: a cell met
    the first time is derived from that triple, and every later meeting
    of it is a check.
    """
    n, imp, one = alg.n, alg.imp, alg.one
    done = [False] * n
    known = []
    steps = []
    e = one
    while e is not None:
        done[e] = True
        derived, checks = [], []
        queue = [e]
        for a in queue:
            known.append(a)
            if homomorphic:
                pairs = dict.fromkeys(p for x in known for p in ((x, a), (a, x)))
            else:
                pairs = ((x, a) for x in alg.elements)
            for x, y in pairs:
                cell = imp[x][y]
                if done[cell]:
                    checks.append((cell, x, y))
                else:
                    done[cell] = True
                    derived.append((cell, x, y))
                    queue.append(cell)
        values = (one,) if e == one else tuple(v for v in alg.elements if allowed[e][v])
        steps.append(Step(e, values, tuple(derived), tuple(checks)))
        e = next((i for i in alg.elements if not done[i]), None)
    return MapPlan(homomorphic, tuple(steps))


def _gather(indices):
    """A function of a sequence s giving the tuple of s[i] for i in ``indices``."""
    if len(indices) == 1:
        (i,) = indices
        return lambda s: (s[i],)
    return itemgetter(*indices)


class _Masks:
    """The tables of value masks that turn a check into a mask on the branch value.

    A check (cell, x, y) of the step on e, whose other cells are set at
    earlier steps, admits the values v of e in one mask read from the
    values u and w of those cells: with f(cell) = f(x) -> f(y), e at y
    alone reads ``preimages[u][w]`` (x, cell), e at x alone
    ``sources[u][w]`` (y, cell), and e at the cell alone ``bit[u][w]``
    (x, y); e at two places reads ``fixed_right[u]`` (x),
    ``fixed_left[u]`` (y) or ``diagonal[u]`` (cell), and at all three the
    one mask ``idempotent``.  With f(cell) = x -> f(y), x is fixed, so the
    tables are row x of the same ones.
    """

    def __init__(self, alg):
        imp, rng = alg.imp, alg.elements
        self.preimages, self.sources = alg.preimages, alg.sources
        self.bit = tuple(tuple(1 << v for v in row) for row in imp)
        self.fixed_right = tuple(sum(1 << v for v in rng if row[v] == v) for row in imp)
        self.fixed_left = tuple(sum(1 << v for v in rng if imp[v][w] == v) for w in rng)
        self.diagonal = tuple(sum(1 << v for v in rng if imp[v][v] == u) for u in rng)
        self.idempotent = sum(1 << v for v in rng if imp[v][v] == v)

    def filter(self, homomorphic, e, check):
        """(mask, ()), (table, (p,)) or (table, (p, q)): the values of e the check
        admits are ``mask``, ``table[f(p)]`` or ``table[f(p)][f(q)]``."""
        cell, x, y = check
        if not homomorphic:
            if cell == e:
                return (self.fixed_right[x], ()) if y == e else (self.bit[x], (y,))
            return self.preimages[x], (cell,)
        if cell != e:
            if x != e:
                return self.preimages, (x, cell)
            return (self.diagonal, (cell,)) if y == e else (self.sources, (y, cell))
        if x != e:
            return (self.fixed_right, (x,)) if y == e else (self.bit, (x, y))
        return (self.idempotent, ()) if y == e else (self.fixed_left, (y,))


def _compiled(alg, plan, step, tables):
    """(element, allowed, pairs, singles, derived, tested) for one step of the DFS.

    Each check whose cells other than e are set at earlier steps becomes a
    mask on the value of e: ``allowed`` is the mask of the values and the
    checks read no cell, ``pairs`` (tables, p, q) and ``singles`` (tables,
    p) gather the others.  The other checks, ``tested`` (cells, x, y), are
    compared after the derived cells are set.
    """
    imp, homomorphic, e = alg.imp, plan.homomorphic, step.element
    here = {c for c, _, _ in step.derived}
    allowed = sum(1 << v for v in step.values)
    two, one, rest = [], [], []
    for check in step.checks:
        cell, x, y = check
        reads = (cell, x, y) if homomorphic else (cell, y)
        if e not in reads or here.intersection(reads):
            rest.append(check)
            continue
        table, args = tables.filter(homomorphic, e, check)
        if not args:
            allowed &= table
        else:
            (two if len(args) == 2 else one).append((table,) + args)
    pairs = singles = tested = None
    if two:
        t, p, q = zip(*two)
        pairs = (t, _gather(p), _gather(q))
    if one:
        t, p = zip(*one)
        singles = (t, _gather(p))
    if rest:
        cells, xs, ys = zip(*rest)
        # the left operands: rows read through the map, or fixed rows
        left = _gather(xs) if homomorphic else tuple(map(imp.__getitem__, xs))
        tested = (_gather(cells), left, _gather(ys))
    derived = step.derived if homomorphic else tuple((c, imp[x], y) for c, x, y in step.derived)
    return e, allowed, pairs, singles, derived, tested


def search_maps(alg, plan, check, what):
    """Every map the ``MapPlan`` admits, sorted.

    One depth-first walk over the plan's steps, with nothing to undo, as
    each step writes only its own cells.  At each step the checks that
    read the branch value and earlier cells only are one mask of the
    values they admit (``_compiled``); for each value in it the derived
    cells are set and the other checks compared, all at once.  Finished
    maps are re-checked by ``check``, and one that fails it raises
    ``InvariantViolation`` as a non-``what``.  The identity, a map of each
    kind on every table, must be among them: a plan that derives a cell
    wrongly loses it.
    """
    imp, homomorphic = alg.imp, plan.homomorphic
    rows = imp.__getitem__
    tables = _Masks(alg)
    levels = [_compiled(alg, plan, step, tables) for step in plan.steps]
    img = [alg.one] * alg.n
    results = []
    last = len(levels) - 1
    depth, pending = 0, []
    while depth >= 0:
        if len(pending) == depth:
            _, allowed, pairs, singles, _, _ = levels[depth]
            if pairs is not None:
                t, p, q = pairs
                allowed = reduce(and_, map(getitem, map(getitem, t, p(img)), q(img)), allowed)
            if singles is not None:
                t, p = singles
                allowed = reduce(and_, map(getitem, t, p(img)), allowed)
            pending.append(bits(allowed))
        e, _, _, _, derived, tested = levels[depth]
        for v in pending[-1]:
            img[e] = v
            if homomorphic:
                for c, x, y in derived:
                    img[c] = imp[img[x]][img[y]]
            else:
                for c, row, y in derived:
                    img[c] = row[img[y]]
            if tested is not None:
                cells, left, ys = tested
                lefts = map(rows, left(img)) if homomorphic else left
                if cells(img) != tuple(map(getitem, lefts, ys(img))):
                    continue
            if depth == last:
                f = tuple(img)
                if not check(f):
                    raise InvariantViolation(f"propagation produced a non-{what} {f}")
                results.append(f)
                continue
            depth += 1
            break
        else:
            pending.pop()
            depth -= 1
    results.sort()
    identity = identity_map(alg)
    i = bisect_left(results, identity)
    if results[i : i + 1] != [identity]:
        raise InvariantViolation(f"propagation missed the identity {identity}")
    return results


def search_multipliers(alg):
    """All multipliers, by propagating f(x -> a) = x -> f(a) from chosen values.

    Each chosen value v for element e must satisfy e <= v, since every
    multiplier is extensive.
    """
    plan = map_plan(alg, alg.leq, homomorphic=False)
    return search_maps(alg, plan, partial(is_multiplier, alg), "multiplier")


@cache
def _order_lattice(leq):
    """The ``FiniteLattice`` of the order matrix ``leq``, a tuple of tuples;
    built once per distinct matrix."""
    return FiniteLattice(leq)


@cache
def _is_implication_algebra(table, top):
    """Whether the index-level table with unit ``top`` passes ``validate_hilbert``
    and is an implication algebra; decided once per distinct (table, top)."""
    return classify(validate_hilbert(table, top)).implication_algebra


def closed_table(carrier, index, op, what, name):
    """``index`` of op(f, g) for every pair of the carrier, which must be closed under op;
    ``what`` and ``name`` name the carrier and op in the ``InvariantViolation``."""
    table = tuple(tuple(index.get(op(f, g)) for g in carrier) for f in carrier)
    for f, row in zip(carrier, table):
        if None in row:
            h = op(f, carrier[row.index(None)])
            raise InvariantViolation(f"{what} not closed under {name}: {h}")
    return table


def map_columns(carrier, index, values=None):
    """For each g of a carrier of self-maps of at most 255 elements, the
    ``index.get`` of op(f, g) over all f, None where it is not in the carrier.

    op(f, g) is f after g when ``values`` is None, else the pointwise
    operation op(f, g)[x] = values[f[x]][g[x]].  Position x of all maps is
    one bytes object, and ``at[x][v]`` is position x of op(f, g) over all f
    for any g with g[x] = v: position v, or position x translated through
    column v of ``values`` (None reads as 255, which no map holds).
    """
    n = len(carrier[0])
    positions = [bytes(p) for p in zip(*carrier)]
    if values is None:
        at = [positions] * n
    else:
        luts = [
            bytes(255 if row[v] is None else row[v] for row in values).ljust(256, b"\xff")
            for v in range(n)
        ]
        at = [[p.translate(lut) for lut in luts] for p in positions]
    get = index.get
    return [list(map(get, zip(*map(getitem, at, g)))) for g in carrier]


def map_table(carrier, index, op, what, name, values=None):
    """``closed_table`` for a carrier of self-maps of 0..n-1, built a column at
    a time by ``map_columns``.  With n > 255, or once a result lies outside
    the carrier, ``closed_table`` builds the table and raises its own
    messages.
    """
    if not carrier or len(carrier[0]) > 255:
        return closed_table(carrier, index, op, what, name)
    by_column = map_columns(carrier, index, values)
    if any(None in column for column in by_column):
        return closed_table(carrier, index, op, what, name)
    return tuple(zip(*by_column))


class CarrierLattice:
    """A sorted carrier with the lattice of an order on it, re-checked against
    the carrier's own operations.

    ``order(carrier)`` is the order matrix of the carrier and ``ops`` is
    ((join, name), (meet, name)).  Construction re-checks that the carrier
    is closed under both operations, that the order is a lattice, that
    they are its join and meet, that the lattice has the carrier members
    ``bottom`` and ``top`` as bounds, and that it is distributive; ``what``
    names the carrier in the ``InvariantViolation``.
    """

    def __init__(self, carrier, order, ops, bottom, top, what):
        self.what = what
        self.carrier = carrier = tuple(carrier)
        self._index = index = {x: i for i, x in enumerate(carrier)}
        (join, join_name), (meet, meet_name) = ops
        join_table = self.closed(join, join_name)
        meet_table = self.closed(meet, meet_name)
        try:
            self.lattice = lat = self.lattice_of(order(carrier))
        except LatticeError as err:
            raise InvariantViolation(f"{what}: order is not a lattice: {err}") from err
        if lat.bottom != index.get(bottom) or lat.top != index.get(top):
            raise InvariantViolation(f"{what}: bounds are not {bottom} and {top}")
        if lat.join_table != join_table:
            raise InvariantViolation(f"{what}: {join_name} is not the join")
        if lat.meet_table != meet_table:
            raise InvariantViolation(f"{what}: {meet_name} is not the meet")
        if not lat.is_distributive:
            raise InvariantViolation(f"{what}: lattice is not distributive")

    def lattice_of(self, leq):
        """The ``FiniteLattice`` of the order matrix ``leq``, built afresh."""
        return FiniteLattice(leq)

    def closed(self, op, name):
        """The table of op on the carrier, re-checked closed by ``closed_table``."""
        return closed_table(self.carrier, self._index, op, self.what, name)

    def __len__(self):
        return len(self.carrier)

    def __iter__(self):
        return iter(self.carrier)

    def index(self, x):
        return self._index[x]


class MapLattice(CarrierLattice):
    """Self-maps under the pointwise order, with composition as join, pointwise
    meet as meet, and the identity and the constant unit map as bounds."""

    def __init__(self, alg, carrier, what):
        self.alg = alg
        ops = ((compose, "composition"), (partial(pointwise_meet, alg), "pointwise meet"))
        identity, one = identity_map(alg), constant_one(alg)
        super().__init__(carrier, partial(pointwise_order, alg), ops, identity, one, what)
        self.identity_index = self._index[identity]
        self.top_index = self._index[one]

    def closed(self, op, name):
        """``map_table`` of composition, or of the pointwise meet read off the meet table."""
        values = None if op is compose else self.alg.meet_table
        return map_table(self.carrier, self._index, op, self.what, name, values)


class MultiplierAlgebra(MapLattice):
    """Every multiplier of an algebra, with its operation tables.

    Besides the lattice, ``imp_table`` gives pointwise implication;
    construction also re-checks that the lattice is Boolean and that
    pointwise implication makes the carrier a bounded implication algebra.

    The re-checks that read the maps run on every multiplier algebra: the
    search's check of each map, the closed tables of composition,
    pointwise meet and pointwise implication, their equality with the
    lattice's join and meet, the bounds and the complement law.  The
    re-checks that read only an index-level table run once per distinct
    table, each through a module-level ``functools.cache``:
    ``_order_lattice``, the lattice of the pointwise order matrix and its
    distributivity, and ``_is_implication_algebra``, ``validate_hilbert``
    and ``classify`` of the pointwise implication table with its top.  Each
    of those is a function of its table alone, so a repeat on an equal
    table cannot give another answer; a failure is not kept, and is raised
    again on a repeat.  Of those of O(m^3) steps in the m multipliers,
    distributivity is a byte kernel while m <= 255; the axioms and
    compatible meets are loops over single instances.
    """

    def __init__(self, alg):
        super().__init__(alg, search_multipliers(alg), "multipliers")
        imp = partial(pointwise_imp, alg)
        self.imp_table = map_table(
            self.carrier, self._index, imp, self.what, "pointwise implication", alg.imp
        )
        join, meet = self.lattice.join_table, self.lattice.meet_table
        # complement of f is f -> identity
        for i in range(len(self.carrier)):
            c = self.imp_table[i][self.identity_index]
            if meet[i][c] != self.identity_index:
                raise InvariantViolation("complement law for meet fails")
            if join[i][c] != self.top_index:
                raise InvariantViolation("complement law for join fails")
        if not _is_implication_algebra(self.imp_table, self.top_index):
            raise InvariantViolation("multipliers do not form an implication algebra")

    def lattice_of(self, leq):
        """The ``FiniteLattice`` of the order matrix ``leq``, built once per distinct matrix."""
        return _order_lattice(tuple(map(tuple, leq)))


def all_multipliers(alg):
    return MultiplierAlgebra(alg)


def _pair_laws(alg, carrier):
    """A test of laws (f) to (i) of ``multiplier_calculus_report`` for one map f
    of the carrier against every g of it and every x, for n <= 255 only.

    Position x of every map is one ``bytes`` object ``cols[x]``.  With
    a = f(x), g(f(x)) over all g is ``cols[a]``, and each right side is
    ``cols[x]`` translated through a 256-byte lookup: b |-> (a -> b) -> a
    for (f), against a repeated; row a -> x of the table for (g); f for
    (h); and b |-> (a -> b) -> b for (i).
    """
    n, m = alg.n, len(carrier)
    imp, luts = alg.imp, alg.luts
    pad = bytes(256 - n)
    cols = [bytes(p) for p in zip(*carrier)]
    absorbing = [bytes(imp[imp[a][b]][a] for b in alg.elements) + pad for a in alg.elements]
    joining = [bytes(imp[imp[a][b]][b] for b in alg.elements) + pad for a in alg.elements]
    constant = [bytes([a]) * m for a in alg.elements]

    def hold(f):
        image = bytes(f) + pad
        for x, a in enumerate(f):
            col, gfx = cols[x], cols[a]
            if (
                col.translate(absorbing[a]) != constant[a]
                or gfx != col.translate(luts[imp[a][x]])
                or gfx != col.translate(image)
                or gfx != col.translate(joining[a])
            ):
                return False
        return True

    return hold


def multiplier_calculus_report(ctx):
    """Check the pointwise multiplier laws for every pair of multipliers.

    The laws, for all multipliers f, g and elements x:
      (a) f1 = 1                      (b) x <= fx
      (c) fx = (fx -> x) -> x         (d) fx = (fx -> x) -> fx
      (e) ffx = fx                    (f) fx = (fx -> gx) -> fx
      (g) gfx = (fx -> x) -> gx       (h) gfx = fgx
      (i) gfx = (fx -> gx) -> gx

    Laws (f) to (i) are tested for each f against every g at once by
    ``_pair_laws`` while n <= 255; for an f that fails it, and for every f
    above 255 elements, the loop over single (g, x) lists the witnesses.
    """
    alg, mult = ctx.alg, ctx.multipliers
    imp, one = alg.imp, alg.one
    leq = alg.leq
    b = ReportBuilder("multiplier-calculus")
    fails = {law: [] for law in "abcdefghi"}
    pair_laws_hold = _pair_laws(alg, mult.carrier) if alg.n <= 255 else None
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
        if pair_laws_hold is not None and pair_laws_hold(f):
            continue
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
