import pytest

from hilbertalg import (
    FilterLattice,
    InvariantViolation,
    all_filters,
    class_of,
    filter_generated,
    filters,
    is_filter,
    is_monomial,
    monomial_max,
    partial_join,
)
from hilbertalg.lattice import bits

from _oracles import (
    all_subsets,
    congruence_classes,
    filters_brute,
    is_filter_via_bounds,
    lower_set,
    mask,
)


def every_filter(alg):
    return all_filters(alg).carrier


def test_trivial_filters(fixtures):
    for alg in fixtures:
        assert is_filter(alg, mask([alg.one]))
        assert is_filter(alg, mask(alg.elements))


def test_filter_examples(godel3, tarski3):
    assert is_filter(godel3, mask({1, 2}))
    assert not is_filter(tarski3, mask({0}))  # missing the unit


def test_filter_test_agreement(algebras4):
    for alg in algebras4:
        for s in all_subsets(alg.n):
            assert is_filter(alg, mask(s)) == is_filter_via_bounds(alg, s)


def test_generated_filter_examples(godel3, tarski3):
    assert filter_generated(godel3, mask([])) == mask({2})
    assert filter_generated(tarski3, mask([0])) == mask({0, 2})
    assert filter_generated(tarski3, mask([0, 1])) == mask({0, 1, 2})


def test_generated_filter_is_least(algebras4):
    for alg in algebras4:
        known = filters_brute(alg)
        fl = FilterLattice(alg)
        for seed in all_subsets(alg.n):
            generated = filter_generated(alg, mask(seed))
            assert fl.closure(mask(seed)) == generated
            least = None
            for f in known:
                if seed <= f and (least is None or f < least):
                    least = f
            assert generated == mask(least)


def test_all_filters_against_bruteforce(algebras4):
    for alg in algebras4:
        assert list(every_filter(alg)) == [mask(f) for f in filters_brute(alg)]


def never_closed(alg, seed):
    """seed with the unit, and with its least missing element once it holds the unit."""
    if seed >> alg.one & 1:
        missing = ~seed & ((1 << alg.n) - 1)
        return seed | (missing & -missing)
    return seed | 1 << alg.one


def unit_grows(alg, seed):
    """seed with the unit, except that the unit alone grows to {0, unit}."""
    unit = 1 << alg.one
    return unit | 1 if seed == unit else seed | unit


def pair_collapses(alg, seed):
    """The generated filter, except that {0, unit} collapses to {unit}."""
    unit = 1 << alg.one
    return unit if seed == unit | 1 else filter_generated(alg, seed)


def universe_collapses(alg, seed):
    """The generated filter, except that the universe collapses to {unit}."""
    unit = 1 << alg.one
    return unit if seed == (1 << alg.n) - 1 else filter_generated(alg, seed)


def not_extensive(alg, seed):
    """Fixed closure values (4, 4, 7, 4, 4, 4, 4, 7) for the seeds 0-7 of tarski3."""
    return (4, 4, 7, 4, 4, 4, 4, 7)[seed]


def not_least(alg, seed):
    """Fixed closure values (4, 5, 7, 4, 4, 5, 4, 7) for the seeds 0-7 of tarski3."""
    return (4, 5, 7, 4, 4, 5, 4, 7)[seed]


@pytest.mark.parametrize(
    "standin, message",
    [
        (never_closed, "filters not closed under generated union: 5"),
        (unit_grows, "filters: generated union is not the join"),
        # the principal filter of 0, {0, 2}, is never reached from {2}
        (pair_collapses, "filters: principal filter of 0 is not in the carrier: 5"),
        # the carrier {2}, {0, 2}, {1, 2} has no top, so {0, 2} and {1, 2} have no join
        (universe_collapses, "filters: order is not a lattice: no unique join for (1, 2)"),
        # the carrier {2}, {0, 1, 2} passes every lattice re-check, but {0} closes to {2}
        (not_extensive, "filters: closure 4 of 1 does not hold it"),
        # extensive and onto filters, but {1} closes to {0, 1, 2}, not to the least
        # filter {1, 2} holding it: the carrier {2}, {0, 2}, {0, 1, 2} lacks {1, 2}
        (not_least, "filters: principal filter of 1 is 7, not its up-set 6"),
    ],
)
def test_filter_lattice_rechecks_the_generated_union(monkeypatch, tarski3, standin, message):
    monkeypatch.setattr(filters, "filter_generated", standin)
    with pytest.raises(InvariantViolation) as err:
        FilterLattice(tarski3)
    assert str(err.value) == message


def test_filter_lattice_rechecks_that_its_members_are_filters(monkeypatch, godel3):
    # seed | unit is extensive, and the Boolean square {2}, {0, 2}, {1, 2}, {0, 1, 2}
    # passes every lattice re-check; but 0 <= 1, so {0, 2} is not a filter
    monkeypatch.setattr(filters, "filter_generated", lambda alg, seed: seed | 1 << alg.one)
    with pytest.raises(InvariantViolation) as err:
        FilterLattice(godel3)
    assert str(err.value) == "filters: 5 is not a filter"


def test_filter_lattice_rechecks_a_seed_closed_after_construction(monkeypatch, tarski3):
    fl = FilterLattice(tarski3)
    assert fl.closure(0b001) == 0b101
    # a seed first closed now is re-checked as it is closed
    monkeypatch.setattr(filters, "filter_generated", lambda alg, seed: 1 << alg.one)
    with pytest.raises(InvariantViolation, match=r"^filters: closure 4 of 3 does not hold it$"):
        fl.closure(0b011)


def test_filter_counts(chain2, godel3, tarski3):
    assert len(every_filter(chain2)) == 2
    assert [list(bits(f)) for f in every_filter(godel3)] == [[2], [1, 2], [0, 1, 2]]
    assert [list(bits(f)) for f in every_filter(tarski3)] == [[2], [0, 2], [1, 2], [0, 1, 2]]


def test_filter_lattice_shapes(godel3, tarski3):
    g = all_filters(godel3).lattice
    assert all(g.leq[i][j] for i in range(3) for j in range(3) if i <= j)  # a chain
    t = all_filters(tarski3).lattice
    assert t.join(1, 2) == 3 and t.meet(1, 2) == 0  # boolean square


def test_join_is_generated_union_and_distributive(algebras4):
    for alg in algebras4:
        fl = all_filters(alg)
        filters = fl.carrier
        for a, j in enumerate(filters):
            for b, k in enumerate(filters):
                assert filters[fl.lattice.join_table[a][b]] == filter_generated(alg, j | k)
                for l in filters:
                    lhs = j & filter_generated(alg, k | l)
                    rhs = filter_generated(alg, (j & k) | (j & l))
                    assert lhs == rhs


def test_filters_are_upward_closed_relative_subsemilattices(algebras4):
    from hilbertalg import is_relative_subsemilattice

    for alg in algebras4:
        for f in every_filter(alg):
            assert is_relative_subsemilattice(alg, f)
            for x in bits(f):
                for y in alg.elements:
                    if alg.le(x, y):
                        assert f >> y & 1


def test_filters_are_translation_closed(algebras4):
    for alg in algebras4:
        for f in every_filter(alg):
            for p in alg.elements:
                for x in bits(f):
                    assert f >> alg.imp[p][x] & 1


def test_congruence_classes(godel3, algebras4):
    cc = congruence_classes(godel3, mask({1, 2}))
    assert set(cc.classes) == {mask({0}), mask({1, 2})}
    for alg in algebras4:
        for f in every_filter(alg):
            cc = congruence_classes(alg, f)
            assert sorted(x for cls in cc.classes for x in bits(cls)) == list(alg.elements)
            assert class_of(alg, f, alg.one) == f
            if f == mask([alg.one]):
                assert all(cls.bit_count() == 1 for cls in cc.classes)
            if f == mask(alg.elements):
                assert len(cc.classes) == 1


def test_congruence_partition_guard(mock_nonmonomial):
    # on the broken table the relation is not transitive for some "filter"
    with pytest.raises(InvariantViolation):
        congruence_classes(mock_nonmonomial, mask({0, 3}))


def test_lower_set_examples(godel3, algebras4):
    assert lower_set(godel3, mask({1, 2}), 1) == mask({0, 1, 2})
    for alg in algebras4:
        bottom = mask([alg.one])
        for a in alg.elements:
            assert lower_set(alg, bottom, a) == mask(
                x for x in alg.elements if alg.le(x, a)
            )


def test_lower_set_is_an_ideal(algebras4):
    for alg in algebras4:
        for f in every_filter(alg):
            for a in alg.elements:
                ideal = lower_set(alg, f, a)
                for x in bits(ideal):
                    for y in alg.elements:
                        if alg.le(y, x):
                            assert ideal >> y & 1
                    for y in bits(ideal):
                        j = partial_join(alg, x, y)
                        if j is not None:
                            assert ideal >> j & 1


def test_class_cofinal_in_lower_set(algebras4):
    for alg in algebras4:
        for f in every_filter(alg):
            for a in alg.elements:
                cls = class_of(alg, f, a)
                for x in bits(lower_set(alg, f, a)):
                    assert any(alg.le(x, y) for y in bits(cls))


def test_monomial_maxima(algebras4):
    for alg in algebras4:
        for f in every_filter(alg):
            assert is_monomial(alg, f)
            for a in alg.elements:
                m = monomial_max(alg, f, a)
                ideal = lower_set(alg, f, a)
                assert m is not None
                assert ideal >> m & 1 and all(alg.le(x, m) for x in bits(ideal))
            if f == mask([alg.one]):
                assert all(monomial_max(alg, f, a) == a for a in alg.elements)
            if f == mask(alg.elements):
                assert all(monomial_max(alg, f, a) == alg.one for a in alg.elements)


def test_mock_monomial_surface(mock_nonmonomial):
    mock = mock_nonmonomial
    j = mask({2, 3})
    assert is_filter(mock, j)
    assert class_of(mock, j, 0) == mask({0, 1})
    assert monomial_max(mock, j, 0) is None
    assert not is_monomial(mock, j)
