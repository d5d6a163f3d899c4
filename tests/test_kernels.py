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
from hilbertalg import closure
from hilbertalg.cli import main
from hilbertalg.closure import (
    cross_meets,
    is_endomorphism,
    is_isotone,
    least_above_misses,
    special_witness,
)
from hilbertalg.filters import class_of, monomial_max
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
    class_of_scan,
    compatible_meet_table_scan,
    compose_scan,
    cross_meets_scan,
    is_distributive_scan,
    is_endomorphism_scan,
    is_isotone_scan,
    is_partial_order_scan,
    least_above_misses_scan,
    monomial_max_scan,
    pointwise_imp_scan,
    pointwise_leq_scan,
    pointwise_meet_scan,
    pointwise_order_scan,
    residual_table_scan,
    special_witness_scan,
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


def unit_fixing_maps(alg):
    return [f for f in product(alg.elements, repeat=alg.n) if f[alg.one] == alg.one]


def assert_correspondence_kernels_match(alg, subsets, maps):
    """class_of, monomial_max, special_witness, cross_meets, is_endomorphism,
    is_isotone and least_above_misses against their scans, on the given
    subsets, pairs of subsets and maps, and the maps paired with the subsets.
    Returns the number of (subset, a) without one greatest class element."""
    without_max = 0
    for s in subsets:
        for a in alg.elements:
            assert class_of(alg, s, a) == class_of_scan(alg, s, a), (alg.imp, s, a)
            m = monomial_max(alg, s, a)
            assert m == monomial_max_scan(alg, s, a), (alg.imp, s, a)
            without_max += m is None
        assert special_witness(alg, s) == special_witness_scan(alg, s), (alg.imp, s)
    # a broken table can have no compatible meet table: then both raise alike
    first = outcome(cross_meets, alg, 0, 0)
    assert first == outcome(cross_meets_scan, alg, 0, 0)
    if not isinstance(first, str):
        for s in subsets:
            for t in subsets:
                assert cross_meets(alg, s, t) == cross_meets_scan(alg, s, t), (alg.imp, s, t)
    for f in maps:
        assert is_endomorphism(alg, f) == is_endomorphism_scan(alg, f), (alg.imp, f)
        assert is_isotone(alg, f) == is_isotone_scan(alg, f), (alg.imp, f)
    paired = ([f for f in maps for _ in subsets], [r for _ in maps for r in subsets])
    assert least_above_misses(alg, *paired) == least_above_misses_scan(alg, *paired), alg.imp
    return without_max


def test_correspondence_kernels_match_the_scans_up_to_four_elements(algebras4):
    # every subset and every unit-fixing self-map
    for alg in algebras4:
        assert_correspondence_kernels_match(alg, range(1 << alg.n), unit_fixing_maps(alg))


def test_correspondence_kernels_match_the_scans_at_five_elements(size5):
    # every subset, with the multipliers and endomorphisms for maps
    assert len(size5) == 21
    for alg in size5:
        s = Structures(alg)
        maps = sorted(set(s.multipliers.carrier) | set(s.endomorphisms))
        assert_correspondence_kernels_match(alg, range(1 << alg.n), maps)


def test_correspondence_kernels_match_the_scans_on_one_cell_changes(algebras4):
    # every one-cell change up to three elements and eight of each four-element table
    rng = random.Random(4)
    mutants = []
    for alg in algebras4:
        n, table = alg.n, alg.imp
        if n <= 3:
            mutants += [
                [[v if (i, j) == (x, y) else c for j, c in enumerate(row)] for i, row in enumerate(table)]
                for x in range(n)
                for y in range(n)
                for v in range(n)
                if v != table[x][y]
            ]
        else:
            mutants += one_cell_mutations(table, 8, rng)
    assert len(mutants) == 4 + 2 * 18 + 6 * 8
    without_max = broken_meets = 0
    for table in mutants:
        n = len(table)
        alg = FiniteHilbertAlgebra(table, n - 1)
        without_max += assert_correspondence_kernels_match(alg, range(1 << n), unit_fixing_maps(alg))
        broken_meets += isinstance(outcome(compatible_meets, alg), str)
    assert without_max > 0 and broken_meets > 0


def test_map_predicates_leave_the_byte_kernels_above_255_elements(monkeypatch):
    n = 256  # one element too many for a byte each
    monkeypatch.setattr(closure, "_pulled", None)
    alg = FiniteHilbertAlgebra(flat_table(n), n - 1)
    identity, one = tuple(range(n)), (n - 1,) * n
    swap = (1, 0) + identity[2:]  # exchanges two atoms
    to_top = (n - 1,) + identity[1:]  # sends one atom to the unit
    unit_down = identity[:-1] + (0,)  # sends the unit to an atom
    verdicts = []
    for f in (identity, one, swap, to_top, unit_down):
        verdicts.append((is_endomorphism(alg, f), is_isotone(alg, f)))
        assert verdicts[-1] == (is_endomorphism_scan(alg, f), is_isotone_scan(alg, f))
    assert verdicts == [(True, True)] * 4 + [(False, False)]
