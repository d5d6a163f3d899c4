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
"""

from itertools import product

from hilbertalg import FilterLattice, InvariantViolation, enumeration, filter_generated, filters

from _oracles import axiom_violations_brute


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
