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
"""

from __future__ import annotations

from functools import partial
from operator import getitem

from .core import InvariantViolation, classify, validate_hilbert
from .lattice import FiniteLattice, LatticeError, masks
from .report import ReportBuilder, fmt


def is_multiplier(alg, f):
    imp = alg.imp
    return all(f[imp[x][y]] == imp[x][f[y]] for x in alg.elements for y in alg.elements)


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


def pointwise_leq(alg, f, g):
    return all(map(getitem, map(alg.leq.__getitem__, f), g))


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


def search_maps(alg, allowed, implied, check, what):
    """Every self-map f with f(1) = 1 that propagation admits, sorted.

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
    if assign(alg.one, alg.one, trail):  # f(1) = 1 for every multiplier and endomorphism
        extend()
    undo(trail)
    return sorted(results)


def search_multipliers(alg):
    """All multipliers, by propagating f(x -> a) = x -> f(a) from chosen values.

    Each chosen value v for element e must satisfy e <= v, since every
    multiplier is extensive.
    """
    imp = alg.imp

    def implied(a, b, img, known):
        return ((row[a], row[b]) for row in imp)

    return search_maps(alg, alg.leq, implied, partial(is_multiplier, alg), "multiplier")


def closed_table(carrier, index, op, what, name):
    """``index`` of op(f, g) for every pair of the carrier, which must be closed under op;
    ``what`` and ``name`` name the carrier and op in the ``InvariantViolation``."""
    table = tuple(tuple(index.get(op(f, g)) for g in carrier) for f in carrier)
    for f, row in zip(carrier, table):
        if None in row:
            h = op(f, carrier[row.index(None)])
            raise InvariantViolation(f"{what} not closed under {name}: {h}")
    return table


def map_table(carrier, index, op, what, name, values=None):
    """``closed_table`` for a carrier of self-maps of 0..n-1, built a column at a time.

    op(f, g) is f after g when ``values`` is None, else the pointwise
    operation op(f, g)[x] = values[f[x]][g[x]].  Position x of all maps is
    one bytes object; for a column g, position x of op(f, g) over all f is
    position g[x], or position x translated through column g[x] of
    ``values`` (None reads as 255, which no map holds).  With n > 255, or
    once a result lies outside the carrier, ``closed_table`` builds the
    table and raises its own messages.
    """
    if not carrier or len(carrier[0]) > 255:
        return closed_table(carrier, index, op, what, name)
    n = len(carrier[0])
    positions = [bytes(p) for p in zip(*carrier)]
    if values is None:
        def columns(g):
            return [positions[v] for v in g]
    else:
        luts = [
            bytes(255 if row[v] is None else row[v] for row in values).ljust(256, b"\xff")
            for v in range(n)
        ]

        def columns(g):
            return [p.translate(luts[v]) for p, v in zip(positions, g)]
    get = index.get
    by_column = []
    for g in carrier:
        column = list(map(get, zip(*columns(g))))
        if None in column:
            return closed_table(carrier, index, op, what, name)
        by_column.append(column)
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
            self.lattice = lat = FiniteLattice(order(carrier))
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
    Every re-check runs in full on every multiplier algebra.  Those of
    O(m^3) steps in the m multipliers are byte kernels while m <= 255:
    distributivity of the lattice, and the axioms (``validate_hilbert``),
    the commutative law and the compatible meets (``classify``) of
    pointwise implication; a failure is reported by the loop over single
    instances.
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
        inner = validate_hilbert(self.imp_table, self.top_index)
        if not classify(inner).implication_algebra:
            raise InvariantViolation("multipliers do not form an implication algebra")


def all_multipliers(alg):
    return MultiplierAlgebra(alg)


def multiplier_calculus_report(ctx):
    """Check the pointwise multiplier laws for every pair of multipliers.

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
