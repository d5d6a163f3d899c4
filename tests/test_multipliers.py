from hilbertalg import (
    Structures,
    all_multipliers,
    classify,
    compose,
    constant_one,
    fixpoints,
    identity_map,
    is_block,
    is_multiplier,
    is_subalgebra,
    join_translation,
    kernel,
    multiplier_calculus_report,
    multiplier_orbit,
    peirce_map,
    pointwise_imp,
    pointwise_leq,
    pointwise_meet,
    search_multipliers,
    translation,
    validate_hilbert,
)

from _oracles import multipliers_brute


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
            assert is_block(alg, orbit)
        assert multiplier_orbit(alg, alg.one, mult) == frozenset([alg.one])


def test_boolean_structure(algebras4):
    for alg in algebras4:
        mult = all_multipliers(alg)
        eps, iota = identity_map(alg), constant_one(alg)
        for f in mult.carrier:
            c = mult.complement(f)
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
        universe = frozenset(alg.elements)
        for f in all_multipliers(alg).carrier:
            assert kernel(alg, f) & fixpoints(alg, f) == frozenset([alg.one])
            assert fixpoints(alg, f) == frozenset(f)  # fixpoints = range
            assert is_subalgebra(alg, fixpoints(alg, f))
            assert fixpoints(alg, f) == frozenset(
                x for x in alg.elements if alg.le(f[x], x)
            )
        assert kernel(alg, identity_map(alg)) == frozenset([alg.one])
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
