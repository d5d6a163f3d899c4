"""Fault injection: a builder fed a wrong stand-in must raise
``InvariantViolation`` or still build the true structure.

The filter lattice closes its seeds through ``filters.filter_generated``.
On ``tarski3`` (atoms 0, 1 under the unit 2) a stand-in closure gives each
of the 8 seeds a mask that holds the unit, one of 4, 5, 6, 7: 4^8 = 65 536
stand-ins in all, swept in a few seconds.  ``test_filters`` pins the
message each re-check gives on one stand-in it catches.

The table search re-validates each hit, the first table of an orbit among
the minimal Brouwerian extension tables of one poset, before it yields the
orbit.  Every one-cell change of every hit through size 5, 2 428 tables, is
fed to it in place of all of them.

The multiplier algebra and the endomorphism monoid re-check the map sets
``search_maps`` finds, and the closure endomorphism lattice re-checks the
multipliers it is cut out of.  On every algebra of size <= 4 each is fed
every set that is the true one with one map dropped, or with one self-map
of the algebra from outside it added (1 595 self-maps in all).  The
multiplier algebra's sweep runs twice: after the true algebras, whose
index-level tables the module caches then hold, and with those caches
cleared before each stand-in.

The endomorphism monoid checks closure under composition on greedy
generators; on each one-map-off stand-in of the endomorphisms that holds
the identity it must give the verdict of the full scanned table.  The 12
drops that leave a closed monoid with the identity pass every re-check of
the library; the count of endomorphisms through quotients
(``_oracles.endomorphism_count``) differs from each.

``search_maps`` itself runs a ``MapPlan``, fixed per algebra.  On every
labelling of every algebra of size <= 4 (42 tables) both plans are run
with one check dropped, and with one derived cell read from another pair
of cells set before it.  Each run finds the true set, or raises: a map
the plan lets through is re-checked, and a map a wrong derivation prunes
takes the identity with it.
"""

from functools import partial
from itertools import chain, permutations, product
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
    is_endomorphism,
    is_isotone,
    is_multiplier,
    multipliers,
    validate_hilbert,
)
from hilbertalg.enumeration import composite_outside
from hilbertalg.multipliers import map_plan, search_maps

from _oracles import axiom_violations_brute, compose_scan, composition_table_scan, endomorphism_count


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
    """(poset, hit) for each table of ``_extension_tables`` outside the orbits before it on its poset."""
    seen, last = set(), None
    for up, flat in enumeration._extension_tables(n):
        if up != last:
            seen, last = set(), up
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
                        enumeration, "_extension_tables", lambda size: iter([(up, changed)])
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


def multiplier_sets_one_map_off_caught(algebras, monkeypatch, cold):
    """How many one-map-off stand-ins of each kind ``MultiplierAlgebra`` rejects;
    with ``cold``, the index-level re-checks' caches are cleared before each."""
    caught = {"drop": 0, "add": 0}
    truths = [(alg, MultiplierAlgebra(alg).carrier) for alg in algebras]
    for alg, true in truths:
        for kind, stand_in in one_map_off(true, alg.n):
            monkeypatch.setattr(multipliers, "search_multipliers", lambda a: stand_in)
            if cold:
                multipliers._order_lattice.cache_clear()
                multipliers._is_implication_algebra.cache_clear()
            try:
                MultiplierAlgebra(alg)
            except InvariantViolation:
                caught[kind] += 1
    return caught


def test_every_multiplier_set_one_map_off_raises(algebras4, monkeypatch):
    # the true algebras are built first, so their tables are remembered
    assert multiplier_sets_one_map_off_caught(algebras4, monkeypatch, cold=False) == {
        "drop": 55,
        "add": 1540,
    }


def test_every_multiplier_set_one_map_off_raises_with_every_table_rechecked_afresh(
    algebras4, monkeypatch
):
    assert multiplier_sets_one_map_off_caught(algebras4, monkeypatch, cold=True) == {
        "drop": 55,
        "add": 1540,
    }


def test_endomorphism_sets_one_map_off_raise_or_are_closed_monoids(algebras4):
    caught = {"drop": 0, "add": 0}
    passed = {"drop": 0, "add": 0}
    no_identity = foreign = 0
    for alg in algebras4:
        true = tuple(Structures(alg).endomorphisms)
        count = endomorphism_count(alg, Structures(alg).filters.carrier)
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
            # the endomorphisms counted through quotients, with no map search, see it
            assert len(stand_in) != count, stand_in
            passed[kind] += 1
    assert no_identity == 10
    # every map is re-checked to be an endomorphism before the closure re-check,
    # so that re-check catches every foreign map, 14 of which keep a closed monoid
    assert foreign == 1496
    assert caught == {"drop": 87, "add": 1496}
    # a missing endomorphism that leaves a closed monoid: no re-check in the
    # library sees it, only the count
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


def test_generator_check_gives_the_full_table_verdict_on_every_stand_in(algebras4):
    verdicts = {True: 0, False: 0}
    for alg in algebras4:
        identity = identity_map(alg)
        for _, stand_in in one_map_off(tuple(Structures(alg).endomorphisms), alg.n):
            if identity in stand_in:
                closed = composite_outside(stand_in, identity) is None
                assert closed == (None not in chain.from_iterable(composition_table_scan(stand_in)))
                verdicts[closed] += 1
    # the 26 closed monoids: the 12 drops that pass the sweep above, and the 14
    # foreign maps that keep a closed monoid, which only the endomorphism check sees
    assert verdicts == {True: 26, False: 1559}


def relabel(alg, perm):
    """The algebra with each element x renamed perm[x]; the unit must stay last."""
    table = [[0] * alg.n for _ in alg.elements]
    for x in alg.elements:
        for y in alg.elements:
            table[perm[x]][perm[y]] = perm[alg.imp[x][y]]
    return validate_hilbert(table, alg.one)


def labellings(alg):
    """The algebra under every permutation of its elements that keeps the unit last."""
    for perm in permutations(range(alg.n - 1)):
        yield relabel(alg, perm + (alg.one,))


def with_step(plan, i, **changes):
    steps = list(plan.steps)
    steps[i] = steps[i]._replace(**changes)
    return plan._replace(steps=tuple(steps))


def faulty_plans(alg, plan):
    """("drop", plan) for each check left out, then ("derive", plan) for each
    derived cell read from another pair of cells set before it; with
    f(cell) = x -> f(y), x is any element."""
    for i, step in enumerate(plan.steps):
        for j in range(len(step.checks)):
            yield "drop", with_step(plan, i, checks=step.checks[:j] + step.checks[j + 1 :])
    before = []
    for i, step in enumerate(plan.steps):
        before.append(step.element)
        for j, (cell, x, y) in enumerate(step.derived):
            lefts = before if plan.homomorphic else alg.elements
            for pair in product(lefts, before):
                if pair != (x, y):
                    derived = step.derived[:j] + ((cell,) + pair,) + step.derived[j + 1 :]
                    yield "derive", with_step(plan, i, derived=derived)
            before.append(cell)


def test_every_plan_one_check_or_derivation_off_finds_the_true_set_or_raises(algebras4):
    outcomes = {}
    tables = [b for alg in algebras4 for b in labellings(alg)]
    assert len(tables) == 42
    for alg in tables:
        anything = [[True] * alg.n] * alg.n
        for homomorphic, allowed, what, check in (
            (True, anything, "endomorphism", is_endomorphism),
            (False, alg.leq, "multiplier", is_multiplier),
        ):
            plan = map_plan(alg, allowed, homomorphic)
            true = search_maps(alg, plan, partial(check, alg), what)
            for kind, faulty in faulty_plans(alg, plan):
                try:
                    got = search_maps(alg, faulty, partial(check, alg), what)
                except InvariantViolation as e:
                    message = str(e)
                    if message.startswith(f"propagation produced a non-{what} ("):
                        result = "non-" + what
                    else:
                        assert message == f"propagation missed the identity {identity_map(alg)}"
                        result = "missed"
                else:
                    assert got == true, (alg.imp, kind, faulty)
                    result = "true"
                key = (what, kind, result)
                outcomes[key] = outcomes.get(key, 0) + 1
    # a dropped check that another check implies changes nothing; every wrong
    # derivation raises, 38 of the 90 only because the identity is missing
    assert outcomes == {
        ("endomorphism", "drop", "true"): 513,
        ("endomorphism", "drop", "non-endomorphism"): 100,
        ("endomorphism", "derive", "missed"): 32,
        ("multiplier", "drop", "true"): 573,
        ("multiplier", "drop", "non-multiplier"): 38,
        ("multiplier", "derive", "non-multiplier"): 52,
        ("multiplier", "derive", "missed"): 6,
    }
