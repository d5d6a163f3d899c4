from copy import copy
from functools import reduce

import pytest

from hilbertalg import (
    AlgebraClass,
    InvariantViolation,
    Structures,
    FiniteLattice,
    adjoint_ideals,
    all_filters,
    compact_elements,
    compose,
    constant_one,
    filter_generated,
    identity_map,
    minimal_brouwerian_extension,
    translation,
    validate_hilbert,
)
from hilbertalg.adjoint import (
    adjoint_iso_report,
    brouwerian_extension_report,
    compact_generation_report,
    fg_ideal_report,
    filter_ideal_bridge_report,
    join_density_report,
)
from hilbertalg.lattice import bits
from hilbertalg.report import fmt

from _oracles import (
    adjoint_ideals_brute,
    all_subsets,
    composite_translation,
    explicit_generators_scan,
    mask,
    pointwise_leq_scan,
    subtraction,
)


def test_composite_translation_basics(tarski3, algebras4):
    for alg in algebras4:
        assert composite_translation(alg, mask([])) == identity_map(alg)
        assert composite_translation(alg, mask([alg.one])) == identity_map(alg)
    assert composite_translation(tarski3, mask([0, 1])) == constant_one(tarski3)


def test_composite_translation_kernel(algebras4):
    from hilbertalg import kernel

    for alg in algebras4:
        for p in map(mask, all_subsets(alg.n)):
            assert kernel(alg, composite_translation(alg, p)) == filter_generated(alg, p)


def test_composite_translation_determined_by_filter(algebras4):
    for alg in algebras4:
        subsets = list(map(mask, all_subsets(alg.n)))
        for p in subsets:
            for q in subsets:
                same = filter_generated(alg, p) == filter_generated(alg, q)
                assert (
                    composite_translation(alg, p) == composite_translation(alg, q)
                ) == same


def test_composites_of_translations_are_joins_of_their_indices(catalog5):
    # the fold of join-density: from the identity, join ce.translations[x] for each x of p
    for entry in catalog5:
        alg, ce = entry.algebra, Structures(entry.algebra).ce
        join, at = ce.lattice.join_table, ce.translations
        for p in range(1 << alg.n):
            joined = reduce(lambda i, x: join[i][at[x]], bits(p), ce.identity_index)
            assert joined == ce.index(composite_translation(alg, p)), (alg.n, p)


def test_join_density(algebras4):
    for alg in algebras4:
        report = join_density_report(Structures(alg))
        assert report.ok, report.as_dict()


def test_subtraction_examples(tarski3, algebras4):
    a, b = translation(tarski3, 0), translation(tarski3, 1)
    assert subtraction(tarski3, a, b, Structures(tarski3).ce.carrier) == b  # since a -> b = b
    for alg in algebras4:
        carrier = Structures(alg).ce.carrier
        eps = identity_map(alg)
        for f in carrier:
            assert subtraction(alg, eps, f, carrier) == f
            for g in carrier:
                if pointwise_leq_scan(alg, g, f):
                    assert subtraction(alg, f, g, carrier) == eps


def test_subtraction_residuation(algebras4):
    for alg in algebras4:
        ctx = Structures(alg)
        carrier, sub = ctx.ce.carrier, ctx.adjoint.lattice.residual_table
        for j, f in enumerate(carrier):
            for i, g in enumerate(carrier):
                s = subtraction(alg, f, g, carrier)
                assert carrier[sub[i][j]] == s  # the table agrees with the map-level scan
                for h in carrier:
                    assert pointwise_leq_scan(alg, g, compose(f, h)) == pointwise_leq_scan(
                        alg, s, h
                    )


def test_adjoint_semilattice_and_translation_law(algebras4):
    for alg in algebras4:
        ctx = Structures(alg)
        adj = ctx.adjoint
        assert list(adj.carrier) == list(ctx.ce.carrier)
        idx = {f: i for i, f in enumerate(adj.carrier)}
        for p in alg.elements:
            for q in alg.elements:
                got = adj.carrier[
                    adj.lattice.residual_table[idx[translation(alg, q)]][idx[translation(alg, p)]]
                ]
                assert got == translation(alg, alg.imp[p][q])


def test_adjoint_iso_report(algebras4):
    for alg in algebras4:
        report = adjoint_iso_report(Structures(alg))
        assert report.ok, report.as_dict()


def test_adjoint_sizes(singleton, godel3):
    assert len(Structures(singleton).adjoint) == 1
    assert len(Structures(godel3).adjoint) == 3


def test_compact_elements(algebras4, godel3):
    for alg in algebras4:
        ctx = Structures(alg)
        assert compact_elements(ctx.ce.lattice) == list(range(len(ctx.ce.carrier)))
        report = compact_generation_report(ctx)
        assert report.ok, report.as_dict()
    # any finite lattice works, e.g. a filter lattice
    assert compact_elements(all_filters(godel3).lattice) == [0, 1, 2]


def test_extension_shapes(singleton, godel3, tarski3):
    assert len(Structures(singleton).extension) == 1
    ctx = Structures(godel3)
    ext = ctx.extension
    assert ext is ctx.filters
    assert len(ext) == 3
    # every filter of the chain is principal, so the embedding is onto
    assert sorted(ext.principal) == [0, 1, 2]
    ext = Structures(tarski3).extension
    assert len(ext) == 4
    assert len(set(ext.principal)) == 3


def test_extension_implication_restricted_to_embedded(algebras4):
    for alg in algebras4:
        ext = Structures(alg).extension
        for p in alg.elements:
            for q in alg.elements:
                got = ext.lattice.residual_table[ext.principal[q]][ext.principal[p]]
                assert ext.carrier[got] == filter_generated(alg, mask([alg.imp[p][q]]))


def _with_residual_cell(fl, i, j, value):
    """fl with one cell of its lattice's residual table replaced."""
    table = [list(row) for row in fl.lattice.residual_table]
    table[i][j] = value
    fl.lattice.__dict__["residual_table"] = tuple(map(tuple, table))
    return fl


def test_extension_rejects_missing_pseudocomplement(tarski3):
    fl = _with_residual_cell(all_filters(tarski3), 2, 1, None)
    with pytest.raises(InvariantViolation, match=r"^no relative pseudocomplement for \(1, 2\)$"):
        minimal_brouwerian_extension(fl)


def test_extension_rejects_broken_residuation(tarski3):
    fl = _with_residual_cell(all_filters(tarski3), 1, 2, 0)
    with pytest.raises(InvariantViolation, match=r"^extension laws fail: c=0 i=2 j=1 law=residuation$"):
        minimal_brouwerian_extension(fl)


def test_extension_report(algebras4):
    for alg in algebras4:
        report = brouwerian_extension_report(Structures(alg))
        assert report.ok, report.as_dict()


def test_ideal_lattice_shapes(godel3, tarski3, singleton):
    ideals = adjoint_ideals(Structures(godel3).adjoint)
    lat = FiniteLattice.from_subsets(ideals)
    assert len(ideals) == 3 and all(lat.leq[i][j] for i in range(3) for j in range(3) if i <= j)
    ideals = adjoint_ideals(Structures(tarski3).adjoint)
    lat = FiniteLattice.from_subsets(ideals)
    assert len(ideals) == 4 and lat.join(1, 2) == 3
    ideals = adjoint_ideals(Structures(singleton).adjoint)
    assert len(ideals) == 1


def test_filter_ideal_bridge(catalog5):
    for entry in catalog5:
        alg = entry.algebra
        ctx = Structures(alg)
        report = filter_ideal_bridge_report(ctx)
        assert report.ok, report.as_dict()
        ideals = adjoint_ideals(ctx.adjoint)
        assert list(ideals) == list(map(mask, adjoint_ideals_brute(ctx.adjoint)))
        assert len(ideals) == len(all_filters(alg))
        ilat = FiniteLattice.from_subsets(ideals)
        assert ilat.isomorphism(all_filters(alg).lattice) is not None


def test_ideal_lattice_rechecks_the_join_table(tarski3):
    adj = Structures(tarski3).adjoint
    bottom, top = adj.lattice.bottom, adj.lattice.top
    join = [list(row) for row in adj.lattice.join_table]
    join[bottom][bottom] = top  # one wrong cell: the bottom's down-set is no longer join-closed
    broken = copy(adj)
    broken.lattice = copy(adj.lattice)
    broken.lattice.join_table = tuple(map(tuple, join))
    with pytest.raises(InvariantViolation, match="not closed under join"):
        adjoint_ideals(broken)


def test_filter_ideal_bridge_on_the_flat_seven_element_algebra():
    # x -> y = y for x != y: the closure endomorphism lattice is Boolean with 64
    # elements, which has about 7.8 million down-sets but only 64 ideals
    n = 7
    one = n - 1
    flat = validate_hilbert([[one if x == y or y == one else y for y in range(n)] for x in range(n)], one)
    report = filter_ideal_bridge_report(Structures(flat))
    assert report.ok, report.as_dict()
    assert [c.detail for c in report.checks] == ["64 ideals, 64 filters"]


def test_fg_ideal_report(catalog4, godel3):
    for entry in catalog4:
        if entry.implication_algebra:
            report = fg_ideal_report(Structures(entry.algebra))
            assert report.ok, report.as_dict()
    # not an implication algebra: one skipped check, and no structure built but the flags
    ctx = Structures(godel3)
    assert fg_ideal_report(ctx).as_dict() == {
        "suite": "finitely-generated-ideal",
        "ok": True,
        "checks": [
            {"name": "precondition", "status": "skip", "detail": "applies to implication algebras only"}
        ],
    }
    assert set(vars(ctx)) == {"alg", "flags"}


def _boolean(n):
    top = (1 << n) - 1
    return validate_hilbert([[(top & ~a) | b for b in range(top + 1)] for a in range(top + 1)], top)


def test_explicit_generators_fail_where_the_subset_scan_fails(algebras6, monkeypatch):
    # the precondition is forced on every algebra of size <= 6; the report joins pairs of
    # translation indices, the scan composes maps over all 2^n subsets p, and each
    # (f, composite over p, composite over q) the scan finds is one witness of the report
    witnesses = []

    def recording(**kw):
        if "q_composite" in kw:
            witnesses.append((kw["map"], kw["composite"], kw["q_composite"]))
        return fmt(**kw)

    monkeypatch.setattr("hilbertalg.adjoint.fmt", recording)
    failing = []  # (maps, subsets, pairs) of each algebra that fails
    for alg in algebras6:
        ctx = Structures(alg)
        implication = ctx.flags.implication_algebra
        ctx.flags = AlgebraClass(True, ctx.flags.implicative_semilattice)
        witnesses.clear()
        (check,) = [c for c in fg_ideal_report(ctx).checks if c.name == "explicit-generators-below-composite"]
        scan = explicit_generators_scan(ctx)
        pairs = sorted(
            {(f, composite_translation(alg, p), composite_translation(alg, q)) for f, p, q in scan}
        )
        assert witnesses == pairs
        assert (check.status == "pass") == implication == (not scan)
        if scan:
            assert check.witness == fmt(map=pairs[0][0], composite=pairs[0][1], q_composite=pairs[0][2])
            assert check.detail == f"{len(pairs)} failing instance(s)"
            failing.append((len({f for f, _, _ in scan}), len(scan), len(pairs)))
    assert (len(failing), *map(sum, zip(*failing))) == (116, 601, 10804, 2796)


def test_fg_ideal_report_passes_on_larger_implication_algebras():
    flat7 = validate_hilbert([[6 if x == y or y == 6 else y for y in range(7)] for x in range(7)], 6)
    for alg in (flat7, _boolean(3), _boolean(4)):
        report = fg_ideal_report(Structures(alg))
        assert [c.status for c in report.checks] == ["pass", "pass"], report.as_dict()
