import random
from functools import partial

import pytest

from hilbertalg import (
    HilbertAxiomError,
    InvariantViolation,
    MultiplierAlgebra,
    Structures,
    all_multipliers,
    classify,
    compose,
    constant_one,
    fixpoints,
    identity_map,
    is_multiplier,
    join_translation,
    kernel,
    multiplier_calculus_report,
    pointwise_imp,
    pointwise_meet,
    search_endomorphisms,
    search_multipliers,
    translation,
    validate_hilbert,
)
from hilbertalg import multipliers
from hilbertalg.lattice import FiniteLattice
from hilbertalg.multipliers import CarrierLattice, MapLattice, map_plan, search_maps

from test_faults import labellings, relabel
from test_kernels import flat_table
from _oracles import (
    endomorphisms_propagated,
    is_block,
    is_subalgebra,
    mask,
    multiplier_orbit,
    multipliers_brute,
    multipliers_bruteforce,
    multipliers_propagated,
    peirce_map,
    pointwise_leq_scan,
)


def test_named_maps_are_multipliers(algebras4):
    for alg in algebras4:
        assert is_multiplier(alg, identity_map(alg))
        assert is_multiplier(alg, constant_one(alg))
        for p in alg.elements:
            assert is_multiplier(alg, translation(alg, p))
            assert is_multiplier(alg, peirce_map(alg, p))
            assert is_multiplier(alg, join_translation(alg, p))


def test_translation_values(godel3, tarski3, algebras4):
    assert translation(godel3, 1) == (0, 2, 2)  # a -> 0 = 0, a -> a = 1
    assert translation(godel3, 2) == identity_map(godel3)
    assert join_translation(tarski3, 0) == (0, 2, 2)
    assert join_translation(tarski3, 0) == translation(tarski3, 1)
    for alg in algebras4:
        assert translation(alg, alg.one) == identity_map(alg)
        for p in alg.elements:
            assert translation(alg, p)[alg.one] == alg.one


def test_non_multiplier_example(godel3):
    f = (1, 1, 2)  # 0 |-> a, a |-> a, 1 |-> 1
    assert not is_multiplier(godel3, f)
    # witnessing instance: f(a -> 0) = a but a -> f(0) = 1
    assert f[godel3.imp[1][0]] == 1
    assert godel3.imp[1][f[0]] == 2


def test_search_matches_bruteforce(catalog5):
    for alg in (e.algebra for e in catalog5):
        assert search_multipliers(alg) == multipliers_brute(alg)
        assert multipliers_bruteforce(alg) == multipliers_brute(alg)


def without_checks(plan):
    return plan._replace(steps=tuple(step._replace(checks=()) for step in plan.steps))


def test_search_maps_rechecks_finished_maps(godel3):
    # with no check left, extensive maps that are no multipliers come out
    plan = map_plan(godel3, godel3.leq, homomorphic=False)
    assert sum(len(step.checks) for step in plan.steps) > 0
    check = partial(is_multiplier, godel3)
    with pytest.raises(InvariantViolation, match=r"propagation produced a non-multiplier \("):
        search_maps(godel3, without_checks(plan), check, "multiplier")


def test_search_maps_rechecks_that_the_identity_is_found(godel3):
    # every value of the first branch element is refused, so no map comes out
    plan = map_plan(godel3, godel3.leq, homomorphic=False)
    first = plan.steps[1]._replace(values=())
    plan = plan._replace(steps=(plan.steps[0], first) + plan.steps[2:])
    check = partial(is_multiplier, godel3)
    with pytest.raises(InvariantViolation, match=r"^propagation missed the identity \(0, 1, 2\)$"):
        search_maps(godel3, plan, check, "multiplier")


def test_plan_matches_the_propagating_search(algebras6):
    # every algebra of size <= 6, each also relabelled at random, where the
    # plans derive cells and compare checks that read them; then the flat
    # 7-element algebra
    rng = random.Random(6)
    algebras = []
    for alg in algebras6:
        perm = rng.sample(range(alg.n - 1), alg.n - 1) + [alg.one]
        algebras += [alg, relabel(alg, perm)]
    algebras.append(validate_hilbert(flat_table(7), 6))
    sizes, derived, reading = [], 0, 0
    for alg in algebras:
        endos = search_endomorphisms(alg)
        assert endos == endomorphisms_propagated(alg), alg.imp
        mults = search_multipliers(alg)
        assert mults == multipliers_propagated(alg), alg.imp
        sizes.append((len(endos), len(mults)))
        for homomorphic in (True, False):
            for step in map_plan(alg, alg.leq, homomorphic).steps:
                here = {cell for cell, _, _ in step.derived}
                derived += len(here)
                for cell, x, y in step.checks:
                    reading += bool(here.intersection((cell, x, y) if homomorphic else (cell, y)))
    assert len(sizes) == 253
    assert sizes[-1] == (13327, 64)
    assert (derived, reading) == (60, 457)


def test_each_plan_sets_every_element_once(godel3, algebras4):
    # godel3: the unit first, then 0 and 1, neither of them x -> y of others
    plan = map_plan(godel3, [[True] * 3] * 3, homomorphic=True)
    assert [(step.element, step.values, step.derived) for step in plan.steps] == [
        (2, (2,), ()),
        (0, (0, 1, 2), ()),
        (1, (0, 1, 2), ()),
    ]
    derived = {True: 0, False: 0}
    for alg in (b for a in algebras4 for b in labellings(a)):
        for homomorphic in (True, False):
            plan = map_plan(alg, alg.leq, homomorphic)
            branched = [step.element for step in plan.steps]
            assert branched[0] == alg.one and branched[1:] == sorted(branched[1:])
            before = set()
            for step in plan.steps:
                before.add(step.element)
                for cell, x, y in step.derived:
                    assert cell not in before and alg.imp[x][y] == cell
                    assert y in before and (x in before or not homomorphic)
                    before.add(cell)
                for cell, x, y in step.checks:
                    assert alg.imp[x][y] == cell and {cell, y} <= before
            assert before == set(alg.elements)
            derived[homomorphic] += sum(len(step.derived) for step in plan.steps)
    assert derived == {True: 4, False: 6}


def test_multiplier_carriers(chain2, godel3, tarski3):
    assert all_multipliers(chain2).carrier == ((0, 1), (1, 1))
    # the chain has a fourth, non-isotone multiplier (p -> x) -> x for p = a,
    # completing the boolean square; the brute-force oracle agrees
    godel = all_multipliers(godel3).carrier
    assert godel == ((0, 1, 2), (0, 2, 2), (2, 1, 2), (2, 2, 2))
    assert tuple(multipliers_brute(godel3)) == godel
    assert join_translation(godel3, 1) == (2, 1, 2)
    assert all_multipliers(tarski3).carrier == (
        (0, 1, 2),
        (0, 2, 2),
        (2, 1, 2),
        (2, 2, 2),
    )


def test_calculus_report(algebras4):
    for alg in algebras4:
        report = multiplier_calculus_report(Structures(alg))
        assert report.ok, report.as_dict()
        assert len(report.checks) == 9


def test_order_characterization(algebras4):
    for alg in algebras4:
        mult = all_multipliers(alg)
        for f in mult.carrier:
            for g in mult.carrier:
                assert pointwise_leq_scan(alg, f, g) == (compose(f, g) == g)


def test_orbits_are_blocks(catalog5):
    for entry in catalog5:
        alg = entry.algebra
        mult = all_multipliers(alg)
        for x in alg.elements:
            orbit = multiplier_orbit(alg, x, mult)
            assert is_block(alg, mask(orbit))
        assert multiplier_orbit(alg, alg.one, mult) == frozenset([alg.one])


def test_boolean_structure(algebras4):
    for alg in algebras4:
        mult = all_multipliers(alg)
        eps, iota = identity_map(alg), constant_one(alg)
        for f in mult.carrier:
            c = pointwise_imp(alg, f, identity_map(alg))
            assert c in set(mult.carrier)
            assert pointwise_meet(alg, f, c) == eps
            assert compose(f, c) == iota


def test_multiplier_table_is_implication_algebra(algebras4):
    for alg in algebras4:
        mult = all_multipliers(alg)
        inner = validate_hilbert(mult.imp_table, mult.top_index)
        assert classify(inner).implication_algebra
        assert mult.lattice.bottom == mult.identity_index


def test_kernel_fixpoint_basics(algebras4):
    for alg in algebras4:
        universe = mask(alg.elements)
        for f in all_multipliers(alg).carrier:
            assert kernel(alg, f) & fixpoints(alg, f) == mask([alg.one])
            assert fixpoints(alg, f) == mask(f)  # fixpoints = range
            assert is_subalgebra(alg, fixpoints(alg, f))
            assert fixpoints(alg, f) == mask(
                x for x in alg.elements if alg.le(f[x], x)
            )
        assert kernel(alg, identity_map(alg)) == mask([alg.one])
        assert kernel(alg, constant_one(alg)) == universe


def test_pointwise_implication_closed(algebras4):
    for alg in algebras4:
        mult = all_multipliers(alg)
        members = set(mult.carrier)
        for f in mult.carrier:
            for g in mult.carrier:
                assert pointwise_imp(alg, f, g) in members
                assert compose(f, g) in members
                assert pointwise_meet(alg, f, g) in members


def test_pointwise_meet_guards_against_incompatible_images(tarski3):
    from hilbertalg import InvariantViolation
    import pytest

    swap = (1, 0, 2)  # an endomorphism but not a multiplier; images clash at the atoms
    with pytest.raises(InvariantViolation):
        pointwise_meet(tarski3, identity_map(tarski3), swap)


CHAIN3 = [[x <= y for y in range(3)] for x in range(3)]
DIAMOND = [[x == y or x == 0 or y == 4 for y in range(5)] for x in range(5)]  # M3


def carrier_lattice(order, **changes):
    """The ``CarrierLattice`` of 0..k-1 under ``order`` with the order's own
    join, meet and bounds, except where ``changes`` replaces one."""
    lat = FiniteLattice(order)
    args = dict(
        carrier=range(lat.size),
        order=lambda carrier: [[lat.leq[x][y] for y in carrier] for x in carrier],
        ops=((lat.join, "join"), (lat.meet, "meet")),
        bottom=lat.bottom,
        top=lat.top,
        what="test",
    )
    args.update(changes)
    return CarrierLattice(**args)


@pytest.mark.parametrize(
    "order,changes,message",
    [
        (CHAIN3, {"ops": ((lambda x, y: x + y, "sum"), (min, "min"))}, "test not closed under sum: 3"),
        (CHAIN3, {"bottom": 1}, "test: bounds are not 1 and 2"),
        (CHAIN3, {"ops": ((min, "min"), (max, "max"))}, "test: min is not the join"),
        (CHAIN3, {"ops": ((max, "max"), (max, "max"))}, "test: max is not the meet"),
        (DIAMOND, {}, "test: lattice is not distributive"),
    ],
)
def test_carrier_lattice_rechecks_its_structure(order, changes, message):
    with pytest.raises(InvariantViolation, match=message):
        carrier_lattice(order, **changes)


def test_map_lattice_bounds_are_the_identity_and_unit_maps(tarski3):
    maps = [identity_map(tarski3), translation(tarski3, 0)]
    with pytest.raises(InvariantViolation, match=r"maps: bounds are not \(0, 1, 2\) and \(2, 2, 2\)"):
        MapLattice(tarski3, maps, "maps")


def shared_tables(mult):
    lat = mult.lattice
    return (
        mult.carrier,
        lat.leq,
        lat.join_table,
        lat.meet_table,
        mult.imp_table,
        mult.identity_index,
        mult.top_index,
    )


def test_multiplier_algebras_built_cold_equal_those_built_warm(algebras6):
    for alg in algebras6:
        all_multipliers(alg)  # leaves every table of the catalog in the caches
    warm = [all_multipliers(alg) for alg in algebras6]
    for alg, mult in zip(algebras6, warm):
        multipliers._order_lattice.cache_clear()
        multipliers._is_implication_algebra.cache_clear()
        assert shared_tables(all_multipliers(alg)) == shared_tables(mult)


def test_each_distinct_index_level_table_is_rechecked_once(algebras6, monkeypatch):
    calls = {"FiniteLattice": 0, "validate_hilbert": 0}

    def counting(name):
        fn = getattr(multipliers, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(multipliers, name, counting(name))
    multipliers._order_lattice.cache_clear()
    multipliers._is_implication_algebra.cache_clear()
    size6 = [alg for alg in algebras6 if alg.n == 6]
    assert len(size6) == 95
    for alg in size6:
        MultiplierAlgebra(alg)
    # 4 distinct order matrices and 4 distinct pointwise implication tables
    assert calls == {"FiniteLattice": 4, "validate_hilbert": 4}
    assert multipliers._order_lattice.cache_info().currsize == 4
    assert multipliers._is_implication_algebra.cache_info().currsize == 4


def entries_and_misses():
    """(entries, misses) of each of the two index-level caches."""
    caches = multipliers._order_lattice, multipliers._is_implication_algebra
    return [(c.cache_info().currsize, c.cache_info().misses) for c in caches]


def test_a_failed_recheck_is_never_remembered(godel3, monkeypatch):
    before = entries_and_misses()
    # reflexivity fails at 0 and 1
    table, top = ((0, 2, 2), (0, 0, 2), (0, 1, 2)), 2
    messages = []
    for _ in range(2):
        with pytest.raises(HilbertAxiomError) as err:
            multipliers._is_implication_algebra(table, top)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("not a Hilbert algebra: reflexivity: (0), reflexivity: (1), ")
    # an order on the four multipliers of godel3 with 0 below 1 and 2, and 3 apart
    order = [[i == j or (i == 0 and j < 3) for j in range(4)] for i in range(4)]
    monkeypatch.setattr(multipliers, "pointwise_order", lambda alg, maps: order)
    messages = []
    for _ in range(2):
        with pytest.raises(InvariantViolation) as err:
            MultiplierAlgebra(godel3)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "multipliers: order is not a lattice: no unique join for (0, 3)"
    # each of the two failures of each check was computed afresh, and none kept
    assert entries_and_misses() == [(size, misses + 2) for size, misses in before]
