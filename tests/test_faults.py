"""Fault injection: a builder fed a wrong stand-in must raise
``InvariantViolation`` or still build the true structure.

The filter lattice closes its seeds through ``filters.filter_generated``.
On ``tarski3`` (atoms 0, 1 under the unit 2) a stand-in closure gives each
of the 8 seeds a mask that holds the unit, one of 4, 5, 6, 7: 4^8 = 65 536
stand-ins in all, swept in a few seconds.  ``test_filters`` pins the
message each re-check gives on one stand-in it catches.
"""

from itertools import product

from hilbertalg import FilterLattice, InvariantViolation, filter_generated, filters


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

