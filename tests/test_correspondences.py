"""The lattice correspondences of the suites are checked on the paper's explicit
maps, against the closure endomorphism lattice's own order: they agree with the
reference isomorphism search on every true structure, fail where a map is
wrong though a search would still find some isomorphism, and no suite runs a
search or compares two closure endomorphisms pointwise again."""

from copy import copy

from hilbertalg import FiniteLattice, adjoint, closure, core, lattice, multipliers, validate_hilbert
from hilbertalg.adjoint import adjoint_ideals, filter_ideal_bridge_report
from hilbertalg.closure import fixpoint_embedding_report
from hilbertalg.structures import Structures
from hilbertalg.suites import ALGEBRA_SUITES, run_algebra_suites

from _oracles import lattice_anti_isomorphism
from test_kernels import flat_table


class Replaced:
    """``ctx`` with some of its structures replaced by the keyword arguments."""

    def __init__(self, ctx, **replaced):
        self.__dict__.update(replaced)
        self._ctx = ctx

    def __getattr__(self, name):
        return getattr(self._ctx, name)


def verdict(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check.status == "pass"


def anti_isomorphism_verdicts(ctx):
    """(explicit, search): the fixpoint-embedding verdict on the kernel-to-fixpoint
    pairing, and whether the search finds a monomial-retract anti-isomorphism."""
    explicit = verdict(fixpoint_embedding_report(ctx), "lattice-anti-isomorphism")
    ml, rl = (FiniteLattice.from_subsets(sets) for sets in (ctx.monomials, ctx.retracts))
    return explicit, lattice_anti_isomorphism(ml, rl) is not None


def bridge_verdicts(ctx):
    """(explicit, search): the filter-ideal-bridge verdict on kernel i |-> down-set
    of i, and whether the search finds a filter-ideal lattice isomorphism."""
    explicit = verdict(filter_ideal_bridge_report(ctx), "ideal-lattice-isomorphic-to-filter-lattice")
    ilat = FiniteLattice.from_subsets(adjoint_ideals(ctx.adjoint))
    return explicit, ctx.filters.lattice.isomorphism(ilat) is not None


def test_explicit_maps_agree_with_the_search_on_every_algebra(algebras6):
    # every algebra of size <= 6, then the flat 7-element algebra (64 of each)
    flat7 = validate_hilbert(flat_table(7), 6)
    for alg in algebras6 + [flat7]:
        ctx = Structures(alg)
        assert anti_isomorphism_verdicts(ctx) == (True, True), alg.imp
        assert bridge_verdicts(ctx) == (True, True), alg.imp


def rotated(ce, name):
    """A copy of ``ce`` with its kernels or fixpoint sets moved one map along."""
    out = copy(ce)
    sets = getattr(ce, name)
    setattr(out, name, sets[1:] + sets[:1])
    return out


def test_explicit_maps_fail_on_rotated_sets_where_the_search_does_not(catalog5):
    # each algebra of size <= 5 with at least two closure endomorphisms, its
    # fixpoint sets rotated for fixpoint-embedding and its kernels for
    # filter-ideal-bridge: the search compares only the two lattices, which
    # the rotation leaves alone, so it still finds a map
    counts = {"algebras": 0, "anti": [0, 0], "bridge": [0, 0]}
    for alg in (e.algebra for e in catalog5):
        ctx = Structures(alg)
        if len(ctx.ce) < 2:
            continue
        counts["algebras"] += 1
        for key, ctx_of, verdicts in (
            ("anti", lambda: Replaced(ctx, ce=rotated(ctx.ce, "fixes")), anti_isomorphism_verdicts),
            ("bridge", lambda: Replaced(ctx, adjoint=rotated(ctx.adjoint, "kernels")), bridge_verdicts),
        ):
            explicit, search = verdicts(ctx_of())
            counts[key][0] += not explicit
            counts[key][1] += search
    assert counts == {"algebras": 30, "anti": [30, 30], "bridge": [30, 30]}


def test_no_suite_searches_or_compares_two_closure_endomorphisms_pointwise(monkeypatch, catalog5):
    searches, orders = [], []

    def searched(name):
        def fail(*args):
            searches.append(name)
            raise AssertionError(f"{name} called by a suite")

        return fail

    for module in (lattice, core):
        monkeypatch.setattr(module, "refine", searched("refine"))
    monkeypatch.setattr(lattice, "isomorphism", searched("isomorphism"))
    # the pointwise order of a list of maps; building ctx.ce runs it once, on the
    # multipliers' carrier and on its own
    real = multipliers.pointwise_order
    for module in (multipliers, closure, adjoint):
        monkeypatch.setattr(
            module,
            "pointwise_order",
            lambda alg, maps: orders.append(list(maps)) or real(alg, maps),
            raising=False,
        )
    for alg in (e.algebra for e in catalog5):
        ctx = Structures(alg)
        members = set(ctx.ce.carrier)
        orders.clear()
        reports = run_algebra_suites(ctx, ALGEBRA_SUITES)
        assert all(r.ok for r in reports), alg.imp
        assert [maps for maps in orders if len(members.intersection(maps)) > 1] == [], alg.imp
    assert searches == []

