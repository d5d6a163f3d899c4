"""The bitmask, row-at-a-time and byte kernels against the element-by-element
scans they replaced (``_oracles``): the same results, and the same errors."""

import json
import random
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertalg import (
    AlgebraClass,
    FiniteHilbertAlgebra,
    FiniteLattice,
    InvariantViolation,
    LatticeError,
    MultiplierAlgebra,
    axiom_violations,
    classify,
    core,
    validate_hilbert,
)
from hilbertalg.cli import main
from hilbertalg.lattice import bound_table, is_partial_order
from hilbertalg.multipliers import (
    closed_table,
    compose,
    map_table,
    pointwise_imp,
    pointwise_leq,
    pointwise_meet,
    pointwise_order,
    search_multipliers,
)
from hilbertalg.structures import Structures
from hilbertalg.suites import ALGEBRA_SUITES, run_algebra_suites

from _oracles import (
    axiom_violations_brute,
    bound_table_scan,
    compatible_meet_table_scan,
    compose_scan,
    is_distributive_scan,
    is_partial_order_scan,
    pointwise_imp_scan,
    pointwise_leq_scan,
    pointwise_meet_scan,
    pointwise_order_scan,
    residual_table_scan,
)
from test_lattice import CHAIN3, DIAMOND4, M3, N5, pool


def relation(bits, n):
    return tuple(tuple(bool(bits >> (i * n + j) & 1) for j in range(n)) for i in range(n))


def every_relation(n):
    return product(product((False, True), repeat=n), repeat=n)


def assert_order_kernels_match(leq):
    assert is_partial_order(leq) == is_partial_order_scan(leq)
    for upper in (True, False):
        assert bound_table(leq, upper) == bound_table_scan(leq, upper)


def test_order_kernels_match_the_scans_on_every_relation_up_to_four_points():
    # non-orders too: an unvalidated algebra's meet table is a bound table of any relation
    for n in range(1, 5):
        for leq in every_relation(n):
            assert_order_kernels_match(leq)


@st.composite
def relations(draw):
    """A relation on 5 to 7 points; half of them closed into a relabelled partial order."""
    n = draw(st.integers(5, 7))
    rel = [list(row) for row in relation(draw(st.integers(0, (1 << (n * n)) - 1)), n)]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(n):
                rel[i][j] = i == j or (i < j and rel[i][j])
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
        perm = draw(st.permutations(range(n)))
        rel = [[rel[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return tuple(map(tuple, rel))


@settings(max_examples=300, deadline=None)
@given(relations())
def test_order_kernels_match_the_scans_on_larger_relations(leq):
    assert_order_kernels_match(leq)


def product_order(p, q):
    """The product of two order matrices, ordered coordinatewise."""
    pairs = list(product(range(len(p)), range(len(q))))
    return [[p[a][c] and q[b][d] for c, d in pairs] for a, b in pairs]


CHAIN2 = [[True, True], [False, True]]


def structure_lattices(algebras):
    for alg in algebras:
        s = Structures(alg)
        yield from (s.filters.lattice, s.ce.lattice, s.multipliers.lattice)


def test_lattice_kernels_match_the_scans(catalog5):
    # M3 and N5 inside larger lattices, so that distributivity fails at a later pair
    larger = [
        FiniteLattice(product_order(a, b))
        for a, b in [(M3, CHAIN2), (CHAIN2, M3), (N5, CHAIN2), (CHAIN2, N5), (DIAMOND4, CHAIN3)]
    ]
    # N5 fails only at i = the upper element of its 2-chain: label it first
    first = [2, 0, 1, 3, 4]
    larger.append(FiniteLattice([[N5[a][b] for b in first] for a in first]))
    lattices = [*pool(), *larger, *structure_lattices(e.algebra for e in catalog5)]
    assert [lat.is_distributive for lat in larger] == [False] * 4 + [True, False]
    for lat in lattices:
        assert lat.is_distributive == is_distributive_scan(lat)
        assert lat.residual_table == residual_table_scan(lat)


def outcome(fn, *args):
    """fn's result, or the message of the InvariantViolation it raised."""
    try:
        return fn(*args)
    except InvariantViolation as e:
        return f"raised: {e}"


def compatible_meets(alg):
    return alg.compatible_meet_table


def test_compatible_meet_table_matches_the_scan(catalog5):
    algebras = [e.algebra for e in catalog5]
    # the implication algebras of multipliers, up to 32 elements
    algebras += [
        FiniteHilbertAlgebra(m.imp_table, m.top_index)
        for m in (Structures(alg).multipliers for alg in algebras)
    ]
    for alg in algebras:
        assert compatible_meets(alg) == compatible_meet_table_scan(alg)


def test_compatible_meet_table_raises_as_the_scan_on_broken_tables():
    preorder = FiniteHilbertAlgebra([[1, 1], [1, 1]], 1)
    chain = FiniteHilbertAlgebra([[2, 2, 2], [0, 2, 2], [1, 0, 2]], 2)
    assert outcome(compatible_meets, preorder) == "raised: two compatible meets for (0, 0): 0 and 1"
    assert outcome(compatible_meets, chain) == "raised: compatible meet 0 of (1, 2) differs from the meet"
    broken = [preorder, chain]
    for n in (2, 3):
        for cells in product(range(n), repeat=n * n):
            broken.append(FiniteHilbertAlgebra([cells[i * n : (i + 1) * n] for i in range(n)], n - 1))
    for alg in broken:
        assert outcome(compatible_meets, alg) == outcome(compatible_meet_table_scan, alg)


def map_carriers(algebras):
    """Each algebra with its multipliers and, up to 3 elements, every self-map."""
    for alg in algebras:
        yield alg, search_multipliers(alg)
        if alg.n <= 3:
            yield alg, list(product(alg.elements, repeat=alg.n))


def test_map_operations_match_the_scans(catalog4):
    for alg, maps in map_carriers(e.algebra for e in catalog4):
        assert pointwise_order(alg, maps) == pointwise_order_scan(alg, maps)
        for f in maps:
            for g in maps:
                assert compose(f, g) == compose_scan(f, g)
                assert pointwise_leq(alg, f, g) == pointwise_leq_scan(alg, f, g)
                assert pointwise_imp(alg, f, g) == pointwise_imp_scan(alg, f, g)
                meet = pointwise_meet_scan(alg, f, g)
                if None in meet:
                    with pytest.raises(InvariantViolation, match="have no meet"):
                        pointwise_meet(alg, f, g)
                else:
                    assert pointwise_meet(alg, f, g) == meet


def test_the_one_and_two_element_algebras(tmp_path, capsys):
    lattices = []
    for n in (1, 2):
        for leq in every_relation(n):
            assert_order_kernels_match(leq)
            try:
                lattices.append(FiniteLattice(leq))
            except LatticeError:
                pass
    # the point and the two chains; at size 1 the row getters of is_distributive
    # return items, not tuples
    assert len(lattices) == 3
    for lat in lattices:
        assert lat.is_distributive and is_distributive_scan(lat)
        assert lat.residual_table == residual_table_scan(lat)
    for table, one in (([[0]], 0), ([[1, 1], [0, 1]], 1)):
        alg = validate_hilbert(table, one)
        assert all(r.ok for r in run_algebra_suites(Structures(alg), list(ALGEBRA_SUITES)))
        for lat in structure_lattices([alg]):
            assert lat.is_distributive and is_distributive_scan(lat)
            assert lat.residual_table == residual_table_scan(lat)
        assert compatible_meets(alg) == compatible_meet_table_scan(alg)
        maps = list(product(alg.elements, repeat=alg.n))
        assert pointwise_order(alg, maps) == pointwise_order_scan(alg, maps)
        path = tmp_path / f"size{alg.n}.json"
        path.write_text(json.dumps({"size": alg.n, "one": one, "table": table}))
        assert main(["verify", str(path), "--suite", "all"]) == 0
        assert "RESULT: PASS (68 passed, 0 failed, 1 skipped)" in capsys.readouterr().out



def kernel_carriers(algebras):
    """Each algebra with its multipliers, closure endomorphisms and endomorphisms
    and, up to 3 elements, every self-map."""
    for alg in algebras:
        s = Structures(alg)
        yield alg, s.multipliers.carrier
        yield alg, s.ce.carrier
        yield alg, tuple(s.endomorphisms)
        if alg.n <= 3:
            yield alg, tuple(product(alg.elements, repeat=alg.n))


def map_ops(alg):
    """(op, name, values) of composition, pointwise meet and pointwise implication."""
    return [
        (compose, "composition", None),
        (partial(pointwise_meet, alg), "pointwise meet", alg.meet_table),
        (partial(pointwise_imp, alg), "pointwise implication", alg.imp),
    ]


def test_map_table_matches_closed_table(catalog5):
    # endomorphisms need not be closed under the pointwise operations, and
    # images need not have a meet: then both raise, with the same message
    raised = set()
    for alg, maps in kernel_carriers(e.algebra for e in catalog5):
        index = {f: i for i, f in enumerate(maps)}
        for op, name, values in map_ops(alg):
            args = (maps, index, op, "maps", name)
            got = outcome(map_table, *args, values)
            assert got == outcome(closed_table, *args)
            if isinstance(got, str):
                raised.add("have no meet" if "have no meet" in got else got.split(":")[1].strip())
    assert raised == {
        "maps not closed under pointwise meet",
        "maps not closed under pointwise implication",
        "have no meet",
    }


def test_map_table_raises_the_reference_messages(godel3, tarski3):
    maps = ((0, 1, 2), (1, 2, 2))  # (1, 2, 2) after itself is (2, 2, 2)
    index = {f: i for i, f in enumerate(maps)}
    with pytest.raises(InvariantViolation, match=r"^maps not closed under composition: \(2, 2, 2\)$"):
        map_table(maps, index, compose, "maps", "composition")
    # in tarski3 the atoms 0 and 1 have no meet
    maps = ((0, 1, 2), (1, 0, 2))
    index = {f: i for i, f in enumerate(maps)}
    meet = partial(pointwise_meet, tarski3)
    with pytest.raises(InvariantViolation, match=r"^images 0, 1 at 0 have no meet; not multiplier images$"):
        map_table(maps, index, meet, "maps", "pointwise meet", tarski3.meet_table)


def test_map_table_leaves_more_than_255_elements_to_closed_table():
    identity = tuple(range(300))  # too many values for one byte each
    assert map_table((identity,), {identity: 0}, compose, "maps", "composition") == ((0,),)


def flat_table(n):
    """The flat algebra on n elements: x -> y = y for x != y, unit n - 1."""
    one = n - 1
    return [[one if x == y or y == one else y for y in range(n)] for x in range(n)]


def listed(table, one):
    return [(v.axiom, v.elements) for v in axiom_violations(table, one)]


def one_cell_mutations(table, count, rng):
    """count copies of the table, each with one cell changed to another element."""
    n = len(table)
    for _ in range(count):
        x, y = rng.randrange(n), rng.randrange(n)
        v = rng.choice([c for c in range(n) if c != table[x][y]])
        yield [[v if (i, j) == (x, y) else c for j, c in enumerate(row)] for i, row in enumerate(table)]


def assert_axiom_kernel_matches(table, one):
    """The byte kernel's decision and the listed violations against the brute oracle."""
    want = axiom_violations_brute(table, one)
    assert core._holds(table, one) == (not want)
    assert listed(table, one) == want
    return want


def test_axiom_kernel_matches_the_brute_oracle_on_multiplier_tables(catalog5):
    tables = [
        (m.imp_table, m.top_index) for m in (Structures(e.algebra).multipliers for e in catalog5)
    ]
    assert max(len(table) for table, _ in tables) == 16
    rng = random.Random(16)
    rejected = 0
    for table, one in tables:
        assert assert_axiom_kernel_matches(table, one) == []
        if len(table) > 1:
            # a table the kernel rejects is listed instance by instance
            for mutant in one_cell_mutations(table, 8, rng):
                rejected += bool(assert_axiom_kernel_matches(mutant, one))
    assert rejected > 200


def test_byte_kernels_on_the_flat_seven_element_multipliers():
    mult = MultiplierAlgebra(validate_hilbert(flat_table(7), 6))
    table, one = mult.imp_table, mult.top_index
    assert len(table) == 64
    assert assert_axiom_kernel_matches(table, one) == []
    for mutant in one_cell_mutations(table, 2, random.Random(64)):
        assert assert_axiom_kernel_matches(mutant, one)
    inner = FiniteHilbertAlgebra(table, one)
    assert compatible_meets(inner) == compatible_meet_table_scan(inner)
    assert mult.lattice.is_distributive and is_distributive_scan(mult.lattice)


def test_distributivity_kernel_on_lattices_of_more_than_sixteen_elements():
    lattices = [
        FiniteLattice(product_order(M3, DIAMOND4)),
        FiniteLattice(product_order(DIAMOND4, N5)),
        FiniteLattice(product_order(product_order(CHAIN3, CHAIN3), M3)),
        FiniteLattice(product_order(product_order(DIAMOND4, DIAMOND4), CHAIN2)),
        FiniteLattice(product_order(CHAIN3, product_order(CHAIN3, CHAIN3))),
    ]
    assert [lat.size for lat in lattices] == [20, 20, 45, 32, 27]
    assert [lat.is_distributive for lat in lattices] == [False, False, False, True, True]
    for lat in lattices:
        assert lat.is_distributive == is_distributive_scan(lat)


def test_more_than_255_elements_leave_the_byte_kernels(monkeypatch):
    n = 256  # one element too many for a byte each
    # axiom_violations lists the instances of such a table without the kernel
    monkeypatch.setattr(core, "_holds", None)
    monkeypatch.setattr(core, "_listed_violations", lambda imp, one: ["listed"])
    assert axiom_violations(flat_table(n), n - 1) == ["listed"]
    monkeypatch.undo()
    alg = FiniteHilbertAlgebra(flat_table(n), n - 1)
    # x and y meet compatibly only where one of them is below the other
    assert alg.compatible_meet_table == tuple(
        tuple(x if y in (x, n - 1) else y if x == n - 1 else None for y in range(n)) for x in range(n)
    )
    assert classify(alg) == AlgebraClass(implication_algebra=True, implicative_semilattice=False)
    def chain(k):
        return [[i <= j for j in range(k)] for i in range(k)]

    assert FiniteLattice(product_order(DIAMOND4, chain(64))).is_distributive
    assert not FiniteLattice(product_order(M3, chain(52))).is_distributive
