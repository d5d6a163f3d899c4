"""Multipliers: self-maps with f(x -> y) = x -> f(y).

The named families here are the translation x |-> p -> x, the Peirce map
x |-> (x -> p) -> x and the join translation x |-> (p -> x) -> x, together
with the identity and the constant unit map.  The full set of multipliers
carries pointwise implication, pointwise meet and composition; construction
of ``MultiplierAlgebra`` re-verifies the expected structure (a bounded
implication algebra under pointwise implication, and a Boolean lattice with
composition as join and pointwise meet as meet).
"""

from __future__ import annotations

from itertools import product

from .core import InvariantViolation, classify, partial_meet, validate_hilbert
from .lattice import FiniteLattice
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


def peirce_map(alg, p):
    """x |-> (x -> p) -> x; always a closure endomorphism."""
    imp = alg.imp
    return tuple(imp[imp[x][p]][x] for x in alg.elements)


def join_translation(alg, p):
    """x |-> (p -> x) -> x; the join with p in an implication algebra."""
    imp = alg.imp
    return tuple(imp[imp[p][x]][x] for x in alg.elements)


def compose(f, g):
    """x |-> f(g(x))."""
    return tuple(f[v] for v in g)


def pointwise_leq(alg, f, g):
    leq = alg.leq
    return all(leq[f[x]][g[x]] for x in alg.elements)


def pointwise_imp(alg, f, g):
    imp = alg.imp
    return tuple(imp[f[x]][g[x]] for x in alg.elements)


def pointwise_meet(alg, f, g):
    """Pointwise meet; total on multipliers, whose images are always compatible."""
    out = []
    for x in alg.elements:
        m = partial_meet(alg, f[x], g[x])
        if m is None:
            raise InvariantViolation(
                f"images {f[x]}, {g[x]} at {x} have no meet; not multiplier images"
            )
        out.append(m)
    return tuple(out)


def kernel(alg, f):
    """Elements sent to the unit."""
    return frozenset(x for x in alg.elements if f[x] == alg.one)


def fixpoints(alg, f):
    """Fixed elements; for a multiplier this is also its range."""
    return frozenset(x for x in alg.elements if f[x] == x)


def search_multipliers(alg):
    """All multipliers, by propagating f(x -> a) = x -> f(a) from chosen values.

    Values are only branched on where not already forced; each chosen value
    v for element e must satisfy e <= v, since every multiplier is
    extensive.  Finished maps are re-checked against the defining law.
    """
    n, one, imp, leq = alg.n, alg.one, alg.imp, alg.leq
    img = [None] * n
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
            for x in range(n):
                stack.append((imp[x][a], imp[x][b]))
        return True

    def extend():
        e = next((i for i in range(n) if img[i] is None), None)
        if e is None:
            f = tuple(img)
            if not is_multiplier(alg, f):
                raise InvariantViolation(f"propagation produced a non-multiplier {f}")
            results.append(f)
            return
        for v in range(n):
            if not leq[e][v]:
                continue
            trail = []
            if assign(e, v, trail):
                extend()
            for a in trail:
                img[a] = None

    trail = []
    if assign(one, one, trail):  # f(1) = 1 holds for every multiplier
        extend()
    for a in trail:
        img[a] = None
    return sorted(results)


def multipliers_bruteforce(alg):
    """Oracle: filter all n^n self-maps by the defining law."""
    return sorted(
        f for f in product(range(alg.n), repeat=alg.n) if is_multiplier(alg, f)
    )


class MapLattice:
    """A sorted carrier of self-maps, closed under composition and pointwise meet.

    ``comp_table`` and ``meet_table`` give carrier indices.  Construction
    re-checks closure under both operations and that the pointwise order is
    a bounded distributive lattice with the identity and the constant unit
    map as bounds, composition as join and pointwise meet as meet.
    """

    def __init__(self, alg, carrier, what):
        self.alg = alg
        self.what = what
        self.carrier = tuple(carrier)
        self._index = {f: i for i, f in enumerate(self.carrier)}
        self.identity_index = self._index[identity_map(alg)]
        self.top_index = self._index[constant_one(alg)]
        self.comp_table = self.op_table(compose, "composition")
        self.meet_table = self.op_table(lambda f, g: pointwise_meet(alg, f, g), "pointwise meet")
        self.lattice = lat = FiniteLattice(
            [[pointwise_leq(alg, f, g) for g in self.carrier] for f in self.carrier]
        )
        if lat.bottom != self.identity_index or lat.top != self.top_index:
            raise InvariantViolation(f"{what}: bounds are not the identity and unit maps")
        if lat.join_table != self.comp_table:
            raise InvariantViolation(f"{what}: composition is not the join")
        if lat.meet_table != self.meet_table:
            raise InvariantViolation(f"{what}: pointwise meet is not the meet")
        if not lat.is_distributive:
            raise InvariantViolation(f"{what}: lattice is not distributive")

    def op_table(self, op, name):
        """Carrier indices of op(f, g) for every pair; the carrier must be closed."""
        table = []
        for f in self.carrier:
            row = []
            for g in self.carrier:
                h = op(f, g)
                if h not in self._index:
                    raise InvariantViolation(f"{self.what} not closed under {name}: {h}")
                row.append(self._index[h])
            table.append(tuple(row))
        return tuple(table)

    def __len__(self):
        return len(self.carrier)

    def __iter__(self):
        return iter(self.carrier)

    def index(self, f):
        return self._index[tuple(f)]


class MultiplierAlgebra(MapLattice):
    """Every multiplier of an algebra, with its operation tables.

    Besides the ``MapLattice`` tables, ``imp_table`` gives pointwise
    implication; construction also re-checks that the lattice is Boolean and
    that pointwise implication makes the carrier a bounded implication
    algebra.
    """

    def __init__(self, alg):
        super().__init__(alg, search_multipliers(alg), "multipliers")
        self.imp_table = self.op_table(lambda f, g: pointwise_imp(alg, f, g), "pointwise implication")
        # complement of f is f -> identity
        for i in range(len(self.carrier)):
            c = self.imp_table[i][self.identity_index]
            if self.meet_table[i][c] != self.identity_index:
                raise InvariantViolation("complement law for meet fails")
            if self.comp_table[i][c] != self.top_index:
                raise InvariantViolation("complement law for join fails")
        inner = validate_hilbert(self.imp_table, self.top_index)
        if not classify(inner).implication_algebra:
            raise InvariantViolation("multipliers do not form an implication algebra")

    def complement(self, f):
        """f -> identity, the Boolean complement."""
        return pointwise_imp(self.alg, f, identity_map(self.alg))


def all_multipliers(alg):
    return MultiplierAlgebra(alg)


def multiplier_orbit(alg, x, mult):
    """The image set {f(x) : f a multiplier}; always a block."""
    return frozenset(f[x] for f in mult.carrier)


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
