"""Fault injection: a builder fed a wrong stand-in must raise
``InvariantViolation`` or still build the true structure.

The filter lattice closes its seeds through ``filters.filter_generated``.
On ``tarski3`` (atoms 0, 1 under the unit 2) a stand-in closure gives each
of the 8 seeds a mask that holds the unit, one of 4, 5, 6, 7: 4^8 = 65 536
stand-ins in all, swept in a few seconds.  ``test_filters`` pins the
message each re-check gives on one stand-in it catches.

The table search re-validates each hit, the first table of an orbit, before
it yields the orbit.  Every one-cell change of every hit through size 5,
2 428 tables, is fed to it in place of that hit.

The multiplier algebra and the endomorphism monoid re-check the map sets
``search_maps`` finds, and the closure endomorphism lattice re-checks the
multipliers it is cut out of.  On every algebra of size <= 4 each is fed
every set that is the true one with one map dropped, or with one self-map
of the algebra from outside it added (1 595 self-maps in all).
"""

from itertools import product
from types import SimpleNamespace

from hilbertalg import (
    FilterLattice,
    InvariantViolation,
    MultiplierAlgebra,
    Structures,
    all_closure_endos,
    enumeration,
    filter_generated,
    filters,
    identity_map,
    is_isotone,
    multipliers,
)

from _oracles import axiom_violations_brute, compose_scan


def test_every_stand_in_closure_raises_or_builds_the_true_carrier(tarski3, monkeypatch):
    true = FilterLattice(tarski3).carrier
    exact = tuple(filter_generated(tarski3, seed) for seed in range(8))
    stand_in = None
    monkeypatch.setattr(filters, "filter_generated", lambda alg, seed: stand_in[seed])
    passed = []
    for stand_in in product((4, 5, 6, 7), repeat=8):
        try:
            fl = FilterLattice(tarski3)
        except InvariantViolation:
            continue
        assert fl.carrier == true, stand_in
        passed.append(stand_in)
    assert exact in passed


def search_hits(n):
    """(poset, hit) for each table the poset search returns outside the orbits before it."""
    for up in enumeration.unlabelled_posets(n - 1):
        seen = set()
        for flat in enumeration._tables_over(up):
            if flat not in seen:
                seen.update(enumeration._orbit(flat, n))
                yield up, flat


def test_every_one_cell_change_of_a_search_hit_raises_or_yields_valid_tables(monkeypatch):
    hits = {n: list(search_hits(n)) for n in range(1, 6)}
    assert [len(hits[n]) for n in hits] == [1, 1, 2, 6, 21]
    caught = valid = 0
    for n in hits:
        for up, hit in hits[n]:
            for cell, old in enumerate(hit):
                for v in range(n):
                    if v == old:
                        continue
                    changed = hit[:cell] + (v,) + hit[cell + 1 :]
                    monkeypatch.setattr(
                        enumeration, "_tables_over", lambda u: iter([changed] if u == up else [])
                    )
                    try:
                        tables = list(enumeration.search_valid_tables(n))
                    except InvariantViolation as e:
                        assert "search produced an invalid table" in str(e)
                        caught += 1
                        continue
                    assert len(tables) == len(set(tables)) >= 1, changed
                    for t in tables:
                        assert axiom_violations_brute(t, n - 1) == [], (changed, t)
                    valid += 1
    # n-1 changes per cell of each hit, none at size 1; a valid change is another labelled algebra
    assert caught + valid == 4 + 2 * 9 * 2 + 6 * 16 * 3 + 21 * 25 * 4
    assert (caught, valid) == (2301, 127)


def one_map_off(true, n):
    """("drop", set) for each map of ``true`` left out, then ("add", set) for
    each self-map of 0..n-1 outside it put in, each set sorted as searched."""
    for i in range(len(true)):
        yield "drop", true[:i] + true[i + 1 :]
    for f in product(range(n), repeat=n):
        if f not in true:
            yield "add", tuple(sorted(true + (f,)))


def test_every_multiplier_set_one_map_off_raises(algebras4, monkeypatch):
    caught = {"drop": 0, "add": 0}
    truths = [(alg, MultiplierAlgebra(alg).carrier) for alg in algebras4]
    for alg, true in truths:
        for kind, stand_in in one_map_off(true, alg.n):
            monkeypatch.setattr(multipliers, "search_multipliers", lambda a: stand_in)
            try:
                MultiplierAlgebra(alg)
            except InvariantViolation:
                caught[kind] += 1
    assert caught == {"drop": 55, "add": 1540}


def test_endomorphism_sets_one_map_off_raise_or_are_closed_monoids(algebras4):
    caught = {"drop": 0, "add": 0}
    passed = {"drop": 0, "add": 0}
    no_identity = foreign = 0
    for alg in algebras4:
        true = tuple(Structures(alg).endomorphisms)
        identity = identity_map(alg)
        for kind, stand_in in one_map_off(true, alg.n):
            ctx = Structures(alg)
            vars(ctx)["endomorphisms"] = stand_in
            try:
                enumeration.endomorphism_monoid(ctx)
            except InvariantViolation as e:
                caught[kind] += 1
                no_identity += str(e) == f"endomorphisms miss the identity {identity}"
                foreign += str(e).startswith("endomorphisms hold a non-endomorphism ")
                continue
            # all a closure re-check sees: the identity, and every composite in the set
            assert identity in stand_in, stand_in
            assert all(compose_scan(f, g) in stand_in for f in stand_in for g in stand_in), stand_in
            passed[kind] += 1
    assert no_identity == 10
    # every map is re-checked to be an endomorphism before the closure re-check,
    # so that re-check catches every foreign map, 14 of which keep a closed monoid
    assert foreign == 1496
    assert caught == {"drop": 87, "add": 1496}
    # a missing endomorphism that leaves a closed monoid: no re-check sees it
    assert passed == {"drop": 12, "add": 0}


def test_multiplier_sets_one_map_off_raise_or_cut_out_the_true_closure_endomorphisms(algebras4):
    caught = {"drop": 0, "add": 0}
    passed = {"drop": 0, "add": 0}
    missing_translation = 0
    for alg in algebras4:
        true = MultiplierAlgebra(alg).carrier
        ce = all_closure_endos(alg, SimpleNamespace(carrier=true)).carrier
        for kind, stand_in in one_map_off(true, alg.n):
            try:
                got = all_closure_endos(alg, SimpleNamespace(carrier=stand_in)).carrier
            except InvariantViolation as e:
                caught[kind] += 1
                missing_translation += "closure endomorphisms: translation by" in str(e)
                continue
            # only a map the isotone cut leaves out can be dropped or added unseen
            off = set(true).symmetric_difference(stand_in).pop()
            assert not is_isotone(alg, off), (kind, off)
            assert got == ce, (kind, off)
            passed[kind] += 1
    # every closure endomorphism dropped, and every isotone foreign map added, raises;
    # 13 of the drops, each a translation, only by the re-check that translations are in
    assert caught == {"drop": 42, "add": 237}
    assert missing_translation == 13
    assert passed == {"drop": 13, "add": 1303}
