import random
from itertools import permutations

import pytest

from hilbertalg import FiniteLattice, LatticeError, Structures
from hilbertalg.lattice import cover_pairs, inclusion_order, isomorphism, refine

from _oracles import cover_pairs_scan, dual_lattice, lattice_anti_isomorphism, mask


def from_covers(cover_lists):
    """Build the order matrix from cover lists (j covers i for j in cover_lists[i])."""
    n = len(cover_lists)
    leq = [[i == j for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in cover_lists[i]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        leq[i][k] = True
                        changed = True
    return leq


CHAIN3 = from_covers([[1], [2], []])
DIAMOND4 = from_covers([[1, 2], [3], [3], []])  # boolean square
M3 = from_covers([[1, 2, 3], [4], [4], [4], []])
N5 = from_covers([[1, 3], [2], [4], [4], []])


def brute_isomorphism(a, b, reverse=False):
    """A bijection preserving (or, with reverse, reversing) the order, by scanning all of them."""
    if a.size != b.size:
        return None
    for perm in permutations(range(a.size)):
        if all(
            a.leq[i][j] == (b.leq[perm[j]][perm[i]] if reverse else b.leq[perm[i]][perm[j]])
            for i in range(a.size)
            for j in range(a.size)
        ):
            return list(perm)
    return None


def pool():
    lats = [FiniteLattice(m) for m in (CHAIN3, DIAMOND4, M3, N5)]
    relabeled = FiniteLattice(
        [[DIAMOND4[[3, 1, 2, 0][i]][[3, 1, 2, 0][j]] for j in range(4)] for i in range(4)]
    )
    return lats + [relabeled]


def test_chain():
    lat = FiniteLattice(CHAIN3)
    assert lat.bottom == 0 and lat.top == 2
    assert lat.join(0, 1) == 1 and lat.meet(1, 2) == 1
    assert cover_pairs(lat.leq) == [(0, 1), (1, 2)]
    assert lat.is_distributive


def test_diamond():
    lat = FiniteLattice(DIAMOND4)
    assert lat.join(1, 2) == 3 and lat.meet(1, 2) == 0
    assert lat.is_distributive


def test_non_distributive():
    assert not FiniteLattice(M3).is_distributive
    assert not FiniteLattice(N5).is_distributive


def test_not_a_lattice():
    two_points = [[True, False], [False, True]]
    with pytest.raises(LatticeError, match=r"no unique join for \(0, 1\)"):
        FiniteLattice(two_points)
    vee = from_covers([[2], [2], []])  # 0 and 1 under 2: every join, no meet of 0 and 1
    with pytest.raises(LatticeError, match=r"no unique meet for \(0, 1\)"):
        FiniteLattice(vee)
    not_an_order = [[True, True], [True, True]]
    with pytest.raises(LatticeError):
        FiniteLattice(not_an_order)


def brute_bound(leq, i, j, upper):
    """Every least common upper bound (greatest lower, unless upper) of i and j."""
    n = len(leq)
    le = (lambda a, b: leq[a][b]) if upper else (lambda a, b: leq[b][a])
    common = [k for k in range(n) if le(i, k) and le(j, k)]
    return [k for k in common if all(le(k, c) for c in common)]


def test_bound_tables_match_bruteforce():
    for lat in pool():
        for i in range(lat.size):
            for j in range(lat.size):
                assert [lat.join_table[i][j]] == brute_bound(lat.leq, i, j, upper=True)
                assert [lat.meet_table[i][j]] == brute_bound(lat.leq, i, j, upper=False)


def brute_residual(lat, b, a):
    """The least h with b <= a v h, by scanning every candidate, or None."""
    cands = [h for h in range(lat.size) if lat.leq[b][lat.join(a, h)]]
    least = [h for h in cands if all(lat.leq[h][c] for c in cands)]
    return least[0] if least else None


def test_residual_table_matches_bruteforce():
    for lat in pool():
        n = lat.size
        brute = tuple(tuple(brute_residual(lat, b, a) for a in range(n)) for b in range(n))
        assert lat.residual_table == brute
    # M3 and N5 are not distributive: some b has no least h with b <= a v h
    for leq in (M3, N5):
        assert any(None in row for row in FiniteLattice(leq).residual_table)


def test_covers_and_bounds_match_the_scans(catalog5):
    # every algebra order, and every filter, closure-endomorphism and
    # multiplier lattice of the algebras through size 5
    lattices = [*pool()]
    for e in catalog5:
        s = Structures(e.algebra)
        lattices += [s.filters.lattice, s.ce.lattice, s.multipliers.lattice]
    for leq in [e.algebra.leq for e in catalog5] + [lat.leq for lat in lattices]:
        assert cover_pairs(leq) == cover_pairs_scan(leq)
    for lat in lattices:
        assert lat.bottom == next(i for i, row in enumerate(lat.leq) if all(row))
        assert lat.top == next(j for j, column in enumerate(zip(*lat.leq)) if all(column))


def test_from_subsets():
    sets = [mask([]), mask({0}), mask({1}), mask({0, 1})]
    lat = FiniteLattice.from_subsets(sets)
    assert lat.join(1, 2) == 3 and lat.meet(1, 2) == 0


def test_inclusion_order_is_not_numeric_order():
    # 0b011 < 0b100 as numbers, but neither subset includes the other
    assert inclusion_order([0b011, 0b100]) == [[True, False], [False, True]]
    assert inclusion_order([0b001, 0b011, 0b110]) == [
        [True, True, False],
        [False, True, False],
        [False, False, True],
    ]
    # against inclusion of the frozensets, on every pair of subsets of three points
    sets = [frozenset(i for i in range(3) if m >> i & 1) for m in range(8)]
    assert inclusion_order(list(range(8))) == [[a <= b for b in sets] for a in sets]


def test_dual():
    lat = FiniteLattice(CHAIN3)
    d = dual_lattice(lat)
    assert d.bottom == lat.top and d.top == lat.bottom
    assert d.join_table == lat.meet_table


def test_isomorphism_matches_bruteforce():
    lats = pool()
    for a in lats:
        for b in lats:
            got = a.isomorphism(b)
            want = brute_isomorphism(a, b)
            assert (got is None) == (want is None)
            if got is not None:
                assert all(
                    a.leq[i][j] == b.leq[got[i]][got[j]]
                    for i in range(a.size)
                    for j in range(a.size)
                )


def test_anti_isomorphism():
    # the reference search of the tests; no suite searches for one
    chain = FiniteLattice(CHAIN3)
    assert lattice_anti_isomorphism(chain, chain) is not None  # chains are self-dual
    m3 = FiniteLattice(M3)
    n5 = FiniteLattice(N5)
    assert lattice_anti_isomorphism(m3, n5) is None
    assert lattice_anti_isomorphism(n5, n5) is not None  # pentagon is self-dual
    lats = pool()
    for a in lats:
        for b in lats:
            got = lattice_anti_isomorphism(a, b)
            assert (got is None) == (brute_isomorphism(a, b, reverse=True) is None)
            if got is not None:
                assert all(
                    a.leq[i][j] == b.leq[got[j]][got[i]]
                    for i in range(a.size)
                    for j in range(a.size)
                )


def brute_table_isomorphism(t1, t2):
    n = len(t1)
    for perm in permutations(range(n)):
        if all(perm[t1[x][y]] == t2[perm[x]][perm[y]] for x in range(n) for y in range(n)):
            return list(perm)
    return None


def test_table_isomorphism_matches_bruteforce():
    # pairs on which every pairwise check passes for a bijection that is not an isomorphism
    cases = [
        (((2, 0, 1), (0, 2, 2), (1, 2, 0)), ((1, 1, 2), (1, 2, 0), (2, 0, 1))),
        (((2, 2, 1), (0, 2, 2), (1, 0, 0)), ((1, 1, 2), (2, 2, 0), (1, 0, 1))),
        (((1, 2, 1), (1, 1, 1), (2, 2, 2)), ((2, 2, 1), (1, 1, 1), (2, 2, 2))),
    ]
    rng = random.Random(0)
    for _ in range(2000):
        # a random table and a relabelling of it, with one cell changed half the time
        n = rng.randint(1, 4)
        t1 = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        perm = rng.sample(range(n), n)
        t2 = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                t2[perm[x]][perm[y]] = perm[t1[x][y]]
        if rng.random() < 0.5:
            t2[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        cases.append((t1, t2))
    for t1, t2 in cases:
        got = isomorphism(t1, refine(t1), t2, refine(t2))
        assert (got is None) == (brute_table_isomorphism(t1, t2) is None)
        if got is not None:
            n = len(t1)
            assert all(got[t1[x][y]] == t2[got[x]][got[y]] for x in range(n) for y in range(n))


def test_singleton_lattice():
    lat = FiniteLattice([[True]])
    assert lat.bottom == lat.top == 0
    assert lat.is_distributive
