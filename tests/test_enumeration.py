import random
import sys
from functools import cache
from itertools import permutations, zip_longest
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertalg import core, enumeration
from hilbertalg.enumeration import survey_record
from hilbertalg.lattice import is_partial_order
from hilbertalg import (
    EnumerationBound,
    FiniteHilbertAlgebra,
    Structures,
    are_isomorphic,
    canonical_table,
    cross_survey_report,
    endomorphism_monoid,
    enumerate_algebras,
    monoid_isomorphism,
    search_valid_tables,
    validate_hilbert,
)

from _oracles import (
    algebra_isomorphism_brute,
    canonical_table_brute,
    endomorphisms_brute,
    poset_canonical_brute,
    valid_tables_brute,
)
from conftest import GODEL3_TABLE, TARSKI3_TABLE


def relabel(table, mapping):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[mapping[x]][mapping[y]] = mapping[table[x][y]]
    return tuple(tuple(r) for r in out)


def test_small_counts(catalog3_sizes):
    assert len(catalog3_sizes[1].entries) == 1
    assert len(catalog3_sizes[2].entries) == 1
    assert len(catalog3_sizes[3].entries) == 2
    assert catalog3_sizes[2].entries[0].algebra.imp == ((1, 1), (0, 1))


def test_size3_catalog_is_the_two_fixtures(catalog3_sizes):
    reps = {e.algebra.imp for e in catalog3_sizes[3].entries}
    assert reps == {
        canonical_table(GODEL3_TABLE, 2),
        canonical_table(TARSKI3_TABLE, 2),
    }


def test_search_agrees_with_unpinned_bruteforce():
    for n in (1, 2, 3):
        assert sorted(search_valid_tables(n)) == valid_tables_brute(
            n, pin_axiom_cells=False
        )


def test_search_yields_each_valid_table_once():
    # with the known totals, distinct valid tables give set equality with every labelled table
    for n, total in ((1, 1), (2, 1), (3, 3), (4, 22), (5, 303), (6, 7021)):
        tables = list(search_valid_tables(n))
        assert len(tables) == len(set(tables)) == total
        assert not any(core.axiom_violations(t, n - 1) for t in tables)


def test_search_validates_each_class_once(monkeypatch):
    # one check per search hit, the table that starts an orbit; its copies are not re-checked
    validated = count_calls(monkeypatch, "axiom_violations")
    for n, classes in enumerate((1, 1, 2, 6, 21, 95), start=1):
        validated.clear()
        list(search_valid_tables(n))
        assert len(validated) == classes, n


def test_unlabelled_posets_are_one_per_class():
    for points, count in enumerate((1, 1, 2, 5, 16, 63, 318)):
        found = enumeration.unlabelled_posets(points)
        assert len(found) == count
        forms = set()
        for up in found:
            leq = [[bool(up[x] >> y & 1) for y in range(points)] for x in range(points)]
            assert is_partial_order(leq)
            forms.add(poset_canonical_brute(leq))
        assert len(forms) == count


def test_raw_count_is_sum_of_orbit_sizes():
    for n in (1, 2, 3, 4):
        catalog = enumerate_algebras(n)
        total = 0
        for e in catalog.entries:
            orbit = set()
            for perm in permutations(range(n - 1)):
                mapping = list(perm) + [n - 1]
                orbit.add(relabel(e.algebra.imp, mapping))
            total += len(orbit)
        assert total == catalog.raw_count


def test_catalog_entries_are_canonical_and_nonisomorphic(catalog4):
    algebras = [e.algebra for e in catalog4]
    for e in catalog4:
        assert e.algebra.imp == canonical_table(e.algebra.imp, e.algebra.one)
        assert e.ce_count == e.filter_count
    for i, a in enumerate(algebras):
        for b in algebras[i + 1 :]:
            if a.n == b.n:
                assert are_isomorphic(a, b) is None


def test_bound_refusal():
    with pytest.raises(EnumerationBound) as err:
        enumerate_algebras(7)
    assert "search space" in str(err.value)
    assert "318 posets" in str(err.value)
    with pytest.raises(ValueError):
        enumerate_algebras(0)


def test_isomorphism_witnesses(godel3, tarski3):
    ident = are_isomorphic(godel3, godel3)
    assert ident is not None
    swapped = validate_hilbert(relabel(godel3.imp, [1, 0, 2]), 2)
    witness = are_isomorphic(godel3, swapped)
    assert witness == [1, 0, 2]
    assert are_isomorphic(godel3, tarski3) is None


def test_isomorphism_matches_bruteforce(algebras4):
    # every catalog algebra up to size 4, and two relabellings of each that move the unit
    pool = list(algebras4)
    for alg in algebras4:
        n = alg.n
        for mapping in (list(range(n))[::-1], list(range(1, n)) + [0]):
            pool.append(validate_hilbert(relabel(alg.imp, mapping), mapping[alg.one]))
    for a in pool:
        for b in pool:
            got = are_isomorphic(a, b)
            assert (got is None) == (algebra_isomorphism_brute(a, b) is None)
            if got is not None:
                assert got[a.one] == b.one
                assert all(
                    b.imp[got[x]][got[y]] == got[a.imp[x][y]]
                    for x in a.elements
                    for y in a.elements
                )


def test_canonical_form_idempotent_and_invariant(catalog4):
    for e in catalog4:
        table = e.algebra.imp
        assert canonical_table(table, e.algebra.n - 1) == table
        n = e.algebra.n
        for perm in permutations(range(n - 1)):
            mapping = list(perm) + [n - 1]
            moved = FiniteHilbertAlgebra(relabel(table, mapping), n - 1)
            assert canonical_table(moved.imp, moved.one) == table


def test_canonical_table_matches_bruteforce():
    # every raw table up to size 5, and two relabellings of each that move the unit
    for n in range(1, 6):
        for table in search_valid_tables(n):
            assert canonical_table(table, n - 1) == canonical_table_brute(table, n - 1)
            for mapping in (list(range(n))[::-1], list(range(1, n)) + [0]):
                moved = relabel(table, mapping)
                assert canonical_table(moved, mapping[n - 1]) == canonical_table_brute(
                    moved, mapping[n - 1]
                )


@cache
def raw_tables_with_forms():
    """(table, unit, brute-force canonical form) for every raw table of sizes 1-5, in search order."""
    return tuple(
        (t, n - 1, canonical_table_brute(t, n - 1)) for n in range(1, 6) for t in search_valid_tables(n)
    )


def count_calls(monkeypatch, name):
    """Patch ``enumeration.<name>`` to record its first argument on each call."""
    seen, real = [], getattr(enumeration, name)

    def counting(first, *rest):
        seen.append(first)
        return real(first, *rest)

    monkeypatch.setattr(enumeration, name, counting)
    return seen


@pytest.mark.parametrize("order", ["search", "shuffled", "sizes-interleaved"])
def test_canonical_table_matches_bruteforce_in_any_order(monkeypatch, order):
    cases = list(raw_tables_with_forms())
    if order == "shuffled":
        random.Random(15).shuffle(cases)
    elif order == "sizes-interleaved":
        by_size = [[c for c in cases if len(c[0]) == n] for n in range(1, 6)]
        cases = [c for group in zip_longest(*by_size) for c in group if c is not None]
    enumeration._orbit_least.clear()
    orbits = count_calls(monkeypatch, "_orbit")
    for table, one, form in cases:
        assert canonical_table(table, one) == form
        assert len(enumeration._orbit_least) <= factorial(len(table) - 1)
    # an orbit is built exactly when a table's class is not the previous table's
    forms = [form for _, _, form in cases]
    assert len(orbits) == sum(a != b for a, b in zip([None] + forms, forms))
    if order == "search":
        assert len(orbits) == 1 + 1 + 2 + 6 + 21
    elif order == "shuffled":
        assert len(orbits) > len(cases) * 9 // 10


def test_canonical_table_matches_bruteforce_off_hilbert_tables():
    rng = random.Random(4)
    tables = [((0,) * 4,) * 4, tuple(tuple(range(4)) for _ in range(4))]
    tables += [tuple(tuple(rng.choices(range(4), k=4)) for _ in range(4)) for _ in range(20)]
    for table in tables:
        assert core.axiom_violations(table, 3)
        for one in (3, 1):
            assert canonical_table(table, one) == canonical_table_brute(table, one)
            assert len(enumeration._orbit_least) <= factorial(3)


def test_classes_walk_one_orbit_per_class_to_canonicalise(monkeypatch):
    tables = list(search_valid_tables(5))
    monkeypatch.setattr(enumeration, "search_valid_tables", lambda n: iter(tables))
    enumeration._orbit_least.clear()
    relabelled = count_calls(monkeypatch, "_relabel")
    algebras, raw = enumeration.classes(5)
    assert (len(algebras), raw) == (21, 303)
    # each orbit walk relabels one table by all 4! unit-fixing relabellings
    assert len(relabelled) == 21 * factorial(4)


def test_classes_walk_each_orbit_once_with_the_real_search(monkeypatch):
    # the search's walk of a class serves canonical_table for every table it yields
    orbits = count_calls(monkeypatch, "_orbit")
    for n, count in ((5, 21), (6, 95)):
        orbits.clear()
        algebras, _ = enumeration.classes(n)
        assert len(algebras) == len(orbits) == count


def test_search_is_unchanged_by_canonicalising_an_unrelated_table_between_yields():
    off_hilbert = ((0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3))
    assert core.axiom_violations(off_hilbert, 3)
    expected = list(search_valid_tables(4))
    interleaved = []
    for table in search_valid_tables(4):
        interleaved.append(table)
        canonical_table(off_hilbert, 3)
    assert interleaved == expected


def test_classes_canonicalise_each_raw_table_once(monkeypatch):
    # the per-raw-table count that the benchmark's enumeration.canonical.calls reads
    canonicalised = count_calls(monkeypatch, "canonical_table")
    algebras, raw = enumeration.classes(4)
    assert (len(algebras), raw) == (6, 22)
    assert len(canonicalised) == 22


@given(st.permutations(list(range(3))))
@settings(max_examples=30, deadline=None)
def test_canonical_form_invariant_under_any_relabeling(perm):
    # the unit may move anywhere; canonical form must not care
    table = relabel(TARSKI3_TABLE, list(perm))
    alg = validate_hilbert(table, perm[2])
    assert canonical_table(alg.imp, alg.one) == canonical_table(TARSKI3_TABLE, 2)


def test_endomorphism_monoids(chain2, godel3, tarski3, catalog5):
    assert endomorphism_monoid(Structures(chain2)).maps == ((0, 1), (1, 1))
    assert endomorphism_monoid(Structures(godel3)).maps == (
        (0, 1, 2),
        (0, 2, 2),
        (1, 2, 2),
        (2, 2, 2),
    )
    mon = endomorphism_monoid(Structures(tarski3))
    assert len(mon) == 7
    assert (1, 0, 2) in mon.maps  # the atom swap automorphism
    for alg in (e.algebra for e in catalog5):
        m = endomorphism_monoid(Structures(alg))
        assert list(m.maps) == endomorphisms_brute(alg)
        assert m.maps[m.identity] == tuple(alg.elements)


def test_monoid_isomorphism(godel3, tarski3, algebras4):
    for alg in algebras4:
        m = endomorphism_monoid(Structures(alg))
        iso = monoid_isomorphism(m, m)
        assert iso is not None
        k = len(m)
        assert all(
            iso[m.table[i][j]] == m.table[iso[i]][iso[j]]
            for i in range(k)
            for j in range(k)
        )
    assert monoid_isomorphism(
        endomorphism_monoid(Structures(godel3)), endomorphism_monoid(Structures(tarski3))
    ) is None


def test_monoid_isomorphism_of_a_monoid_with_itself_is_the_identity(catalog5):
    # the witness the survey uses for an algebra paired with itself
    for e in catalog5:
        m = endomorphism_monoid(Structures(e.algebra))
        assert monoid_isomorphism(m, m) == list(range(len(m)))


def test_monoid_table_is_rechecked_closed_under_composition():
    maps = ((0, 1, 2), (1, 2, 2))  # (1, 2, 2) after itself is (2, 2, 2)
    with pytest.raises(core.InvariantViolation, match=r"^endomorphisms not closed under composition: \(2, 2, 2\)$"):
        enumeration.EndoMonoid(maps, 0).table


def test_monoid_isomorphism_between_relabelings(godel3):
    swapped = validate_hilbert(relabel(godel3.imp, [1, 0, 2]), 2)
    m1 = endomorphism_monoid(Structures(godel3))
    m2 = endomorphism_monoid(Structures(swapped))
    assert monoid_isomorphism(m1, m2) is not None


def flat_algebra(n):
    """The flat algebra: x -> y = y whenever x != y and y != 1."""
    one = n - 1
    return validate_hilbert(
        [[one if x == y or y == one else y for y in range(n)] for x in range(n)], one
    )


def test_monoid_isomorphism_is_not_bounded_by_the_recursion_limit():
    m = endomorphism_monoid(Structures(flat_algebra(5)))
    assert len(m) == 209
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        iso = monoid_isomorphism(m, m)
    finally:
        sys.setrecursionlimit(limit)
    assert iso is not None
    k = len(m)
    assert all(
        iso[m.table[i][j]] == m.table[iso[i]][iso[j]]
        for i in range(k)
        for j in range(k)
    )


def survey(algebras):
    """The cross-survey of the algebras, with their records built in-process."""
    return cross_survey_report(algebras, [survey_record(Structures(a)) for a in algebras])


def test_cross_survey_small(catalog3_sizes):
    algebras = [alg for n in (1, 2, 3) for alg in catalog3_sizes[n].algebras()]
    report = survey(algebras)
    assert report.ok, report.as_dict()


def test_cross_survey_size5(monkeypatch, size5):
    colored, refined = [], []

    def counting(m):
        colored.append(m)
        return real(m)

    def refining(table, marked=()):
        refined.append(table)
        return real_refine(table, marked)

    real, real_refine = enumeration._monoid_colors, core.refine
    monkeypatch.setattr(enumeration, "_monoid_colors", counting)
    for module in (core, enumeration):
        monkeypatch.setattr(module, "refine", refining)
    # fresh algebras, so no colouring is cached from earlier tests
    algebras = [FiniteHilbertAlgebra(a.imp, a.one) for a in size5]
    report = survey(algebras)
    # each algebra and its monoid are coloured at most once, however many pairs
    # they are in, and a monoid only where another one has its size: 9 of 21
    assert len(algebras) == 21
    assert len(colored) == 9
    assert len({id(m) for m in colored}) == len(colored)
    imps = {id(a.imp) for a in algebras}
    for_algebras = [t for t in refined if id(t) in imps]
    assert len(for_algebras) <= 21
    assert len({id(t) for t in for_algebras}) == len(for_algebras)
    assert report.lines() == [
        "[PASS] filter-lattice-iff-adjoint (21 algebras, 231 pairs)",
        "[PASS] monoid-iso-implies-adjoint-iso",
        "[PASS] monoid-iso-carries-closure-endos",
        "[PASS] implicative-semilattice-rigidity",
        "[PASS] isomorphic-algebras-sanity",
    ]
