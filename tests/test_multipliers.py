from functools import partial

import pytest

from hilbertalg import (
    InvariantViolation,
    Structures,
    all_multipliers,
    classify,
    compose,
    constant_one,
    fixpoints,
    identity_map,
    is_multiplier,
    is_subalgebra,
    join_translation,
    kernel,
    multiplier_calculus_report,
    pointwise_imp,
    pointwise_leq,
    pointwise_meet,
    search_multipliers,
    translation,
    validate_hilbert,
)
from hilbertalg.lattice import FiniteLattice
from hilbertalg.multipliers import CarrierLattice, MapLattice, search_maps

from _oracles import (
    is_block,
    mask,
    multiplier_orbit,
    multipliers_brute,
    multipliers_bruteforce,
    peirce_map,
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


def test_search_matches_bruteforce(algebras4):
    for alg in algebras4:
        assert search_multipliers(alg) == multipliers_brute(alg)
        assert multipliers_bruteforce(alg) == multipliers_brute(alg)


def test_search_maps_rechecks_finished_maps(godel3):
    # with nothing propagated, extensive maps that are no multipliers come out
    def implied(a, b, img, known):
        return ()

    check = partial(is_multiplier, godel3)
    with pytest.raises(InvariantViolation, match=r"propagation produced a non-multiplier \("):
        search_maps(godel3, godel3.leq, implied, check, "multiplier")


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
                assert pointwise_leq(alg, f, g) == (compose(f, g) == g)


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
