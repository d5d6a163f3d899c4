import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertalg import (
    FiniteHilbertAlgebra,
    HilbertAxiomError,
    InvariantViolation,
    MalformedTableError,
    axiom_violations,
    classify,
    compatible_meet,
    partial_join,
    partial_meet,
    validate_hilbert,
)
from hilbertalg.core import subset_key
from hilbertalg.lattice import bits

from _oracles import (
    all_subsets,
    axiom_violations_brute,
    block_from,
    compatible_meet_brute,
    frozenset_key,
    is_block,
    is_partial_order_scan,
    is_relative_subsemilattice,
    is_subalgebra,
    join_brute,
    mask,
    meet_brute,
    subalgebras,
)
from conftest import GODEL3_TABLE, TARSKI3_TABLE


def test_singleton_is_valid():
    alg = validate_hilbert([[0]], 0)
    assert alg.n == 1 and alg.one == 0


def test_two_chain_is_valid_all_triples():
    table = [[1, 1], [0, 1]]
    alg = validate_hilbert(table, 1)
    # direct check of all 8 triples and 4 pairs, independently of the validator
    for x in range(2):
        assert table[x][1] == 1 and table[x][x] == 1
        for y in range(2):
            assert table[x][table[y][x]] == 1
            for z in range(2):
                lhs = table[x][table[y][z]]
                rhs = table[table[x][y]][table[x][z]]
                assert table[lhs][rhs] == 1
    assert alg.le(0, 1) and not alg.le(1, 0)


def test_three_element_fixtures_are_valid():
    validate_hilbert(GODEL3_TABLE, 2)
    validate_hilbert(TARSKI3_TABLE, 2)


def test_broken_chain_fails_exchange_at_known_triple():
    # the chain with a -> 0 redefined to a
    table = [[2, 2, 2], [1, 2, 2], [0, 1, 2]]
    bad = axiom_violations(table, 2)
    assert bad, "table must be rejected"
    assert all(v.axiom == "exchange" for v in bad)
    assert ("exchange", (1, 1, 0)) in {(v.axiom, v.elements) for v in bad}
    with pytest.raises(HilbertAxiomError):
        validate_hilbert(table, 2)


def test_violations_match_brute_oracle_for_broken_tables():
    tables = [
        ([[2, 2, 2], [1, 2, 2], [0, 1, 2]], 2),
        ([[2, 0, 2], [2, 2, 2], [0, 1, 2]], 2),  # junk order
        ([[1, 0], [0, 1]], 1),
        ([[3, 2, 3, 3], [2, 3, 3, 3], [0, 1, 3, 3], [0, 1, 2, 3]], 3),
    ]
    for table, one in tables:
        got = [(v.axiom, v.elements) for v in axiom_violations(table, one)]
        assert got == axiom_violations_brute(table, one)


def test_malformed_is_distinct_from_axiom_violation():
    with pytest.raises(MalformedTableError):
        axiom_violations([[0, 5], [0, 1]], 1)
    with pytest.raises(MalformedTableError):
        axiom_violations([[0, 1]], 1)
    with pytest.raises(MalformedTableError):
        axiom_violations([], 0)
    with pytest.raises(MalformedTableError):
        validate_hilbert([[0]], 3)


def test_natural_order(chain2, godel3, tarski3, fixtures):
    assert chain2.leq[0][1] and not chain2.leq[1][0]
    leq = tarski3.leq
    assert not leq[0][1] and not leq[1][0]  # incomparable atoms
    assert leq[0][2] and leq[1][2]
    for alg in fixtures:
        for x in alg.elements:
            assert alg.le(x, alg.one)
            assert alg.le(alg.one, x) == (x == alg.one)


def test_natural_order_is_a_partial_order(algebras4):
    for alg in algebras4:
        assert is_partial_order_scan(alg.leq)


def test_partial_meet_join_examples(godel3, tarski3):
    assert partial_meet(godel3, 1, 2) == 1  # meet(a, 1) = a on the chain
    assert partial_join(godel3, 0, 1) == 1  # join(0, a) = a
    assert partial_join(tarski3, 0, 1) == 2  # join(a, b) = 1
    assert partial_meet(tarski3, 0, 1) is None  # no common lower bound


def test_meets_and_joins_against_oracle(algebras4, fixtures):
    for alg in algebras4 + fixtures:
        for x in alg.elements:
            for y in alg.elements:
                assert partial_meet(alg, x, y) == meet_brute(alg, x, y)
                assert partial_join(alg, x, y) == join_brute(alg, x, y)
                assert compatible_meet(alg, x, y) == compatible_meet_brute(alg, x, y)


def test_compatible_meet_table_rechecks_every_pair():
    # broken tables: the full preorder on two elements, and the chain
    # 0 < 1 < 2 with 2 -> 1 = 0, where 0 is the compatible meet of 1 and 2
    preorder = FiniteHilbertAlgebra([[1, 1], [1, 1]], 1)
    with pytest.raises(InvariantViolation, match=r"two compatible meets for \(0, 0\): 0 and 1"):
        compatible_meet(preorder, 0, 0)
    chain = FiniteHilbertAlgebra([[2, 2, 2], [0, 2, 2], [1, 0, 2]], 2)
    assert partial_meet(chain, 1, 2) == 1
    # asking for any pair checks them all
    with pytest.raises(InvariantViolation, match=r"compatible meet 0 of \(1, 2\) differs"):
        compatible_meet(chain, 0, 0)


def test_compatibility_examples(godel3, tarski3, fixtures):
    assert compatible_meet(tarski3, 0, 1) is None
    assert compatible_meet(godel3, 0, 1) is not None and compatible_meet(godel3, 0, 1) == 0
    for alg in fixtures:
        for x in alg.elements:
            assert compatible_meet(alg, x, alg.one) == x


def test_compatible_meet_is_the_meet(algebras4):
    for alg in algebras4:
        for x in alg.elements:
            for y in alg.elements:
                m = compatible_meet(alg, x, y)
                if m is not None:
                    assert m == partial_meet(alg, x, y)


def test_subalgebra_and_relative_subsemilattice(godel3, fixtures):
    for alg in fixtures:
        assert is_subalgebra(alg, mask([alg.one]))
        assert is_subalgebra(alg, mask(alg.elements))
        assert is_relative_subsemilattice(alg, mask([alg.one]))
        assert is_relative_subsemilattice(alg, mask(alg.elements))
    assert is_relative_subsemilattice(godel3, mask({0, 2}))


def test_block_from_unit_subalgebra(godel3, tarski3):
    # {1 -> p} = {p}: a block exactly when p is the unit
    for alg in (godel3, tarski3):
        for p in alg.elements:
            b = block_from(alg, mask([alg.one]), p)
            assert b == mask([p])
            assert is_block(alg, b) == (p == alg.one)


def test_block_of_whole_tarski3(tarski3):
    b = block_from(tarski3, mask(tarski3.elements), 0)
    assert b == mask({0, 2})
    assert is_block(tarski3, b)
    # the whole algebra has no least element, so it is not a block
    assert not is_block(tarski3, mask(tarski3.elements))


def test_blocks_are_pairwise_compatible_with_algebra_meets(algebras4):
    for alg in algebras4:
        leq = alg.leq
        for members in all_subsets(alg.n):
            if not is_block(alg, mask(members)):
                continue
            for x in members:
                for y in members:
                    m = compatible_meet(alg, x, y)
                    assert m is not None
                    # the meet computed inside the block agrees
                    lower = [c for c in members if leq[c][x] and leq[c][y]]
                    block_meet = next(
                        c for c in lower if all(leq[d][c] for d in lower)
                    )
                    assert block_meet == m


def test_image_blocks_from_subalgebras(algebras4):
    # every {x -> p : x in X} with X a subalgebra containing p is a block
    for alg in algebras4:
        for sub in subalgebras(alg):
            for p in bits(sub):
                assert is_block(alg, block_from(alg, sub, p))


def test_classify(singleton, chain2, godel3, tarski3):
    assert classify(godel3) == classify(godel3).__class__(False, True)
    assert classify(tarski3).implication_algebra
    assert not classify(tarski3).implicative_semilattice
    for alg in (singleton, chain2):
        flags = classify(alg)
        assert flags.implication_algebra and flags.implicative_semilattice


def test_weakening_identity_everywhere(algebras4):
    for alg in algebras4:
        for x in alg.elements:
            for y in alg.elements:
                assert alg.imp[x][alg.imp[y][x]] == alg.one


def test_implication_algebra_joins(catalog4):
    # (x -> y) -> y is the join, and pairs with a lower bound have meets
    for entry in catalog4:
        if not entry.implication_algebra:
            continue
        alg = entry.algebra
        for x in alg.elements:
            for y in alg.elements:
                assert alg.imp[alg.imp[x][y]][y] == partial_join(alg, x, y)
                has_lower = any(alg.le(c, x) and alg.le(c, y) for c in alg.elements)
                if has_lower:
                    assert partial_meet(alg, x, y) is not None


@st.composite
def random_tables(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    table = [
        [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n)]
        for _ in range(n)
    ]
    one = draw(st.integers(min_value=0, max_value=n - 1))
    return table, one


@given(random_tables())
@settings(max_examples=200, deadline=None)
def test_validator_on_random_tables(case):
    table, one = case
    bad = axiom_violations(table, one)
    assert [(v.axiom, v.elements) for v in bad] == axiom_violations_brute(table, one)
    if bad:
        with pytest.raises(HilbertAxiomError):
            validate_hilbert(table, one)
    else:
        alg = validate_hilbert(table, one)
        # unit row of any valid table is the identity
        assert all(alg.imp[one][x] == x for x in range(alg.n))


def test_subset_key_sorts_masks_like_the_frozenset_key():
    # every mask below 1 << 6, against the same subsets as frozensets
    by_mask = sorted(range(1 << 6), key=subset_key)
    by_set = [mask(s) for s in sorted(all_subsets(6), key=frozenset_key)]
    assert by_mask == by_set
    # numeric order and the key disagree: {2} sorts before {0, 1}
    assert subset_key(0b100) < subset_key(0b011)
