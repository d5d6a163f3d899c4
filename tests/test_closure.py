import gc
import random
import traceback
import weakref
from collections import Counter
from functools import reduce
from itertools import product
from operator import or_
from types import SimpleNamespace

import pytest

from hilbertalg import (
    FiniteHilbertAlgebra,
    InvariantViolation,
    NonMonomialFilterError,
    NotClosureRetractError,
    NotSpecialError,
    Structures,
    all_filters,
    all_multipliers,
    ce_from_monomial_filter,
    ce_from_retract,
    compose,
    cross_meets,
    filter_generated,
    fixpoints,
    identity_map,
    is_closure_endomorphism,
    is_closure_operator,
    is_closure_retract,
    is_endomorphism,
    is_filter,
    is_idempotent,
    is_isotone,
    is_multiplier,
    kernel,
    search_endomorphisms,
    special_closure_retracts,
    translation,
    validate_hilbert,
)
from hilbertalg import closure, lattice, structures
from hilbertalg.closure import (
    ce_structure_report,
    fixpoint_embedding_report,
    fixpoint_filter_report,
    idempotent_composition_report,
    implication_extras_report,
    is_special,
    isotone_kernel_special_report,
    kernel_embedding_report,
    monomial_roundtrip,
)
from hilbertalg.core import joins, subset_key
from hilbertalg.lattice import bits

from test_kernels import flat_table
from test_suites import RANDOM_EXTENSIONS
from _oracles import (
    closure_endos_brute,
    embedding_count,
    embedding_count_brute,
    endomorphism_count,
    endomorphisms_brute,
    endomorphisms_bruteforce,
    filters_brute,
    finitely_generated_ce,
    is_monomial_scan,
    is_relative_subsemilattice,
    is_subalgebra,
    mask,
    peirce_map,
    quotient,
    random_extension_algebra,
    reachable,
    special_subsets_scan,
    translation_closed_scan,
)


def test_characterizations_agree_on_all_maps(algebras4):
    for alg in algebras4:
        imp, leq, n = alg.imp, alg.leq, alg.n
        for f in product(range(n), repeat=n):
            m1 = is_multiplier(alg, f)
            m3 = is_endomorphism(alg, f)
            m6 = all(
                imp[f[x]][f[y]] == imp[x][f[y]] for x in range(n) for y in range(n)
            )
            leto = all(
                leq[f[x]][imp[f[y]][f[z]]]
                for x in range(n)
                for y in range(n)
                for z in range(n)
                if leq[x][imp[y][z]]
            )
            lc = all(
                any(f[x] == imp[p][x] for p in range(n)) for x in range(n)
            )
            direct = is_closure_endomorphism(alg, f)
            assert direct == (m1 and m3) == (m1 and m6) == (m3 and m6)
            assert direct == (leto and lc)
            assert direct == (m1 and is_isotone(alg, f))


def test_named_maps_are_closure_endos(algebras4):
    for alg in algebras4:
        ce = set(Structures(alg).ce.carrier)
        assert identity_map(alg) in ce
        for p in alg.elements:
            assert translation(alg, p) in ce
            assert peirce_map(alg, p) in ce


def test_ce_carriers(chain2, godel3, tarski3):
    assert Structures(chain2).ce.carrier == ((0, 1), (1, 1))
    godel_ce = Structures(godel3).ce
    assert godel_ce.carrier == ((0, 1, 2), (0, 2, 2), (2, 2, 2))
    # a 3-chain: the order is total
    assert all(
        godel_ce.lattice.leq[i][j] or godel_ce.lattice.leq[j][i]
        for i in range(3)
        for j in range(3)
    )
    # the chain has 4 multipliers but only 3 closure endomorphisms
    assert len(all_multipliers(godel3)) == 4
    tarski_ce = Structures(tarski3).ce
    assert tarski_ce.carrier == ((0, 1, 2), (0, 2, 2), (2, 1, 2), (2, 2, 2))
    assert tarski_ce.lattice.join(1, 2) == 3  # boolean square


def test_tarski3_complement_example(tarski3):
    from hilbertalg import join_translation, pointwise_imp

    alpha_a = translation(tarski3, 0)
    alpha_b = translation(tarski3, 1)
    # complement of the translation by a is the join translation by a,
    # which coincides with the translation by the other atom
    complement = pointwise_imp(tarski3, alpha_a, identity_map(tarski3))
    assert complement == join_translation(tarski3, 0) == alpha_b
    assert fixpoints(tarski3, alpha_a) == kernel(tarski3, alpha_b) == mask({1, 2})


def test_ce_against_direct_definition(algebras4):
    for alg in algebras4:
        assert list(Structures(alg).ce.carrier) == closure_endos_brute(alg)


def test_ce_equals_filter_route(algebras4):
    for alg in algebras4:
        ctx = Structures(alg)
        assert list(ctx.ce.carrier) == sorted(map(ctx.monomial_ce, all_filters(alg).carrier))


def test_kernels(godel3, algebras4):
    assert kernel(godel3, translation(godel3, 1)) == mask({1, 2})
    assert fixpoints(godel3, translation(godel3, 1)) == mask({0, 2})
    for alg in algebras4:
        for p in alg.elements:
            # kernel of a translation is the principal filter, and conversely:
            # the principal filter rebuilds the translation
            principal = filter_generated(alg, mask([p]))
            assert kernel(alg, translation(alg, p)) == principal
            assert ce_from_monomial_filter(alg, principal) == translation(alg, p)


def test_non_isotone_multiplier_is_rejected(godel3):
    f = (2, 1, 2)  # the join translation by a; a multiplier but not isotone
    assert is_multiplier(godel3, f)
    assert not is_isotone(godel3, f)
    assert not is_closure_endomorphism(godel3, f)
    assert not is_filter(godel3, kernel(godel3, f))
    assert not is_special(godel3, fixpoints(godel3, f))


def test_isotone_kernel_special_report(algebras4):
    for alg in algebras4:
        report = isotone_kernel_special_report(Structures(alg))
        assert report.ok, report.as_dict()


def test_isotone_kernel_special_tests_only_the_fixpoint_set_of_each_multiplier(monkeypatch, catalog5):
    # on every algebra of size <= 5 and on the 32-element Boolean algebra, the
    # report tests the specialness of each multiplier's fixpoint set at most
    # once, and tabulates no specialness of other subsets on the context
    tested = []
    real = closure.special_witness
    monkeypatch.setattr(closure, "special_witness", lambda alg, s: tested.append(s) or real(alg, s))
    boolean32 = validate_hilbert([[(31 & ~a) | b for b in range(32)] for a in range(32)], 31)
    for alg in [*(e.algebra for e in catalog5), boolean32]:
        ctx = Structures(alg)
        tested.clear()
        assert isotone_kernel_special_report(ctx).ok, alg.imp
        assert len(tested) <= len(ctx.multipliers.carrier), alg.imp
        assert not [name for name in vars(ctx) if name.startswith("special_")], alg.imp


def test_endomorphism_search(catalog5, godel3):
    for alg in (e.algebra for e in catalog5):
        assert search_endomorphisms(alg) == endomorphisms_brute(alg)
        assert endomorphisms_bruteforce(alg) == endomorphisms_brute(alg)
    assert search_endomorphisms(godel3) == [
        (0, 1, 2),
        (0, 2, 2),
        (1, 2, 2),
        (2, 2, 2),
    ]


def test_embedding_count_matches_every_injective_map_up_to_four_elements(algebras4):
    for alg in algebras4:
        for f in Structures(alg).filters.carrier:
            q = quotient(alg, f)
            assert embedding_count(*q, alg) == embedding_count_brute(*q, alg), (alg.imp, f)


def test_endomorphisms_are_counted_again_through_quotients(algebras6):
    # every endomorphism is the quotient map onto A/F, F its kernel, followed
    # by an embedding A/F -> A: the count needs no map search
    assert len(algebras6) == 126
    for alg in algebras6 + [validate_hilbert(flat_table(7), 6)]:
        count = endomorphism_count(alg, Structures(alg).filters.carrier)
        assert count == len(search_endomorphisms(alg)), alg.imp
    assert count == 13327


def test_non_closure_endomorphism_fails_idempotent_composite(godel3):
    f = (1, 2, 2)  # an endomorphism that is not idempotent
    assert is_endomorphism(godel3, f)
    assert not is_closure_operator(godel3, f)
    idems = [t for t in search_endomorphisms(godel3) if is_idempotent(t)]
    assert any(not is_idempotent(compose(t, f)) for t in idems)


def test_idempotent_composition_report(algebras4):
    for alg in algebras4:
        report = idempotent_composition_report(Structures(alg))
        assert report.ok, report.as_dict()


def test_kernel_embedding_report(algebras4):
    for alg in algebras4:
        report = kernel_embedding_report(Structures(alg))
        assert report.ok, report.as_dict()
        assert not any(c.status == "skip" for c in report.checks)


def test_ce_structure_report(algebras4):
    for alg in algebras4:
        report = ce_structure_report(Structures(alg))
        assert report.ok, report.as_dict()


def test_monomial_filter_roundtrip_examples(godel3):
    assert ce_from_monomial_filter(godel3, mask({2})) == identity_map(godel3)
    assert ce_from_monomial_filter(godel3, mask({0, 1, 2})) == (2, 2, 2)
    assert ce_from_monomial_filter(godel3, mask({1, 2})) == translation(godel3, 1)
    with pytest.raises(ValueError):
        ce_from_monomial_filter(godel3, mask({0, 2}))  # not a filter


def test_mock_monomial_domain_error(mock_nonmonomial):
    mock = mock_nonmonomial
    bad = mask({2, 3})
    assert is_filter(mock, bad)
    with pytest.raises(NonMonomialFilterError) as err:
        ce_from_monomial_filter(mock, bad)
    assert err.value.element == 0
    assert err.value.class_members == mask({0, 1})
    fails, skips = monomial_roundtrip(
        Structures(mock), [mask({3}), bad, mask(range(4))]
    )
    assert fails == []
    assert len(skips) == 1 and "no greatest element" in skips[0]


def test_monomial_error_is_raised_afresh_with_a_traceback_of_constant_depth(mock_nonmonomial):
    # Structures.monomial_ce keeps no NonMonomialFilterError: each call raises
    # a new one, with the traceback of that call alone, not one grown by the
    # frames of every call before it
    ctx = Structures(mock_nonmonomial)
    bad = mask({2, 3})
    errors, depths = [], []
    for _ in range(5):
        with pytest.raises(NonMonomialFilterError) as err:
            ctx.monomial_ce(bad)
        errors.append(err.value)
        depths.append(len(traceback.extract_tb(err.value.__traceback__)))
    assert len({id(e) for e in errors}) == 5
    assert len({str(e) for e in errors}) == 1
    assert len(set(depths)) == 1, depths
    assert ctx.monomial_ce.cache_info().currsize == 0

    class Local:
        pass

    def catching():
        # nothing may hold the error, and so this frame and its local, once it returns
        local = Local()
        try:
            ctx.monomial_ce(bad)
        except NonMonomialFilterError:
            pass
        return weakref.ref(local)

    alive = catching()
    gc.collect()
    assert alive() is None


def test_monomial_ce_builds_a_map_once_and_an_error_on_every_call(mock_nonmonomial, monkeypatch):
    built = []

    def counting(alg, members):
        built.append(members)
        return ce_from_monomial_filter(alg, members)

    # patched before the Structures is built, so its monomial_ce calls through it
    monkeypatch.setattr(structures, "ce_from_monomial_filter", counting)
    ctx = Structures(mock_nonmonomial)
    bad, top = mask({2, 3}), mask(range(4))
    for members in (bad, bad, top, top):
        try:
            ctx.monomial_ce(members)
        except NonMonomialFilterError:
            pass
    assert built == [bad, bad, top]
    # the invalid table has no filter lattice: monomials reads three of its filters
    vars(ctx)["filters"] = SimpleNamespace(carrier=(mask({3}), bad, top))
    assert ctx.monomials == (mask({3}), top)


def test_every_filter_of_a_finite_algebra_is_monomial(algebras6):
    # every filter of a finite algebra is finitely generated, so monomial: on
    # every algebra of size <= 6 and on the flat 7-element algebra, monomial_ce
    # rejects none
    for alg in algebras6 + [validate_hilbert(flat_table(7), 6)]:
        ctx = Structures(alg)
        assert ctx.monomials == ctx.filters.carrier, alg.imp


def test_special_and_retract_examples(godel3, tarski3, fixtures):
    for alg in fixtures:
        universe = mask(alg.elements)
        unit = mask([alg.one])
        for s in (universe, unit):
            assert is_special(alg, s) and is_closure_retract(alg, s)
    assert is_special(godel3, mask({0, 2}))
    assert is_closure_retract(godel3, mask({0, 2}))
    # {a, 1} on the chain is a closure retract but not special
    assert is_closure_retract(godel3, mask({1, 2}))
    assert not is_special(godel3, mask({1, 2}))
    # the atoms have nothing above the unit, so no closure retract
    assert not is_closure_retract(tarski3, mask({0, 1}))


def test_retract_roundtrip_examples(godel3, fixtures):
    for alg in fixtures:
        assert ce_from_retract(alg, mask(alg.elements)) == identity_map(alg)
        assert ce_from_retract(alg, mask([alg.one])) == (alg.one,) * alg.n
    assert ce_from_retract(godel3, mask({0, 2})) == translation(godel3, 1)


def test_retract_domain_errors(godel3, tarski3):
    with pytest.raises(NotClosureRetractError) as err:
        ce_from_retract(tarski3, mask({0, 1}))
    assert err.value.element == 2
    with pytest.raises(NotSpecialError) as err:
        ce_from_retract(godel3, mask({1, 2}))
    assert err.value.pair == (0, 1)
    with pytest.raises(NotClosureRetractError):
        ce_from_retract(godel3, mask([]))


def test_ce_from_retract_stops_at_the_first_element_with_no_least_member_above(monkeypatch):
    # on the flat 7-element algebra, 0 has the up-set {0, 6}, which misses {1}:
    # one least-above lookup finds that, before the other six elements
    lookups = []

    class Counting(lattice._Least):
        def __getitem__(self, common):
            lookups.append(common)
            return super().__getitem__(common)

    monkeypatch.setattr(closure, "_Least", Counting)
    alg = validate_hilbert(flat_table(7), 6)
    with pytest.raises(NotClosureRetractError) as err:
        ce_from_retract(alg, mask({1}))
    assert err.value.element == 0
    assert lookups == [0]
    assert not is_closure_retract(alg, mask({1}))
    assert lookups == [0, 0]
    # a retract still takes one lookup per element
    assert ce_from_retract(alg, mask(alg.elements)) == identity_map(alg)
    assert len(lookups) == 2 + alg.n


def test_retract_ce_raises_its_domain_errors_on_every_call(godel3, tarski3):
    # Structures.retract_ce keeps no error: each call raises a new one, carrying
    # the same element or pair as ce_from_retract, and nothing is cached
    for alg, members, error, attr, value in (
        (godel3, mask({1, 2}), NotSpecialError, "pair", (0, 1)),
        (tarski3, mask({0, 1}), NotClosureRetractError, "element", 2),
    ):
        ctx = Structures(alg)
        errors = []
        for _ in range(3):
            with pytest.raises(error) as err:
                ctx.retract_ce(members)
            errors.append(err.value)
        assert len({id(e) for e in errors}) == 3
        assert {getattr(e, attr) for e in errors} == {value}
        assert ctx.retract_ce.cache_info().currsize == 0


def test_cross_meets_examples(godel3, tarski3):
    # fixpoint sets of the two translations on the tarski algebra
    fa = fixpoints(tarski3, translation(tarski3, 0))
    fb = fixpoints(tarski3, translation(tarski3, 1))
    assert cross_meets(tarski3, fa, fb) == mask({0, 1, 2})
    assert cross_meets(godel3, mask({0, 2}), mask({2})) == mask({0, 2})


def test_fixpoint_lattice_of_chain_is_dual_chain(godel3):
    fixes = sorted(
        (fixpoints(godel3, f) for f in Structures(godel3).ce.carrier),
        key=subset_key,
    )
    assert fixes == [mask({2}), mask({0, 2}), mask({0, 1, 2})]


def test_fixpoint_embedding_report(algebras4):
    for alg in algebras4:
        report = fixpoint_embedding_report(Structures(alg))
        assert report.ok, report.as_dict()


def test_special_retract_scan(tarski3, catalog5):
    # Structures.retracts, the unions of translates retract_ce accepts, is the
    # scan's list in the same order, and the fixpoint sets of the carrier
    for alg in [tarski3, *(e.algebra for e in catalog5)]:
        ctx = Structures(alg)
        retracts = special_closure_retracts(alg, ctx.translate_unions)
        assert ctx.retracts == retracts, alg.imp
        assert set(retracts) == {fixpoints(alg, f) for f in ctx.ce.carrier}, alg.imp


def test_special_subsets_are_the_special_unions_of_translates(algebras6, tarski3, godel3):
    # the unions of translates hold every special subset: the special ones among
    # them equal the scan of all 2^n masks, in the same order, and each special
    # subset is the union of the translates of its members; translates[x] is the
    # set of the p -> x
    boolean = [[[(top & ~a) | b for b in range(top + 1)] for a in range(top + 1)] for top in (7, 15)]
    others = [validate_hilbert(flat_table(n), n - 1) for n in (7, 8, 9)]
    others += [validate_hilbert(table, len(table) - 1) for table in boolean]
    for alg in [*algebras6, *others, tarski3, godel3]:
        imp = alg.imp
        assert alg.translates == tuple(mask(row[x] for row in imp) for x in alg.elements)
        special = [s for s in Structures(alg).translate_unions if is_special(alg, s)]
        assert special == special_subsets_scan(alg), alg.imp
        for s in special:
            assert reduce(or_, (alg.translates[x] for x in bits(s)), 0) == s, (alg.imp, s)


def test_every_translate_is_closed_under_translations(algebras6, tarski3, godel3):
    # for y = p -> x in translates[x], translates[y] lies in translates[x]: in the
    # Brouwerian extension q -> (p -> x) = (q & p) -> x, and ((a -> x) -> x) -> x
    # = a -> x, so q -> (p -> x) = r -> x with r = (q -> (p -> x)) -> x in the
    # algebra; so every union of translates is translation-closed
    boolean = [[[(top & ~a) | b for b in range(top + 1)] for a in range(top + 1)] for top in (7, 15, 31)]
    others = [validate_hilbert(flat_table(n), n - 1) for n in (7, 8, 9)]
    others += [validate_hilbert(table, len(table) - 1) for table in boolean]
    others += [random_extension_algebra(random.Random(seed))[0] for seed, _, _ in RANDOM_EXTENSIONS]
    for alg in [*algebras6, *others, tarski3, godel3]:
        translates = alg.translates
        for x, t in enumerate(translates):
            assert all(not translates[y] & ~t for y in bits(t)), (alg.imp, x)


def one_cell_changes(table):
    """Every copy of the table with one cell changed to another element."""
    n = len(table)
    for x, y in product(range(n), repeat=2):
        for v in range(n):
            if v != table[x][y]:
                yield [[v if (i, j) == (x, y) else c for j, c in enumerate(row)] for i, row in enumerate(table)]


def with_broken_copies(algebras4):
    """Each algebra of size <= 4, then every one-cell change of those of size 3 and 4."""
    for alg in algebras4:
        yield alg, alg
        if alg.n >= 3:
            for table in one_cell_changes(alg.imp):
                yield alg, FiniteHilbertAlgebra(table, alg.one)


def outcome(fn, *args):
    """fn(*args), or the message of the InvariantViolation it raises."""
    try:
        return fn(*args)
    except InvariantViolation as e:
        return f"raised: {e}"


def test_subset_closure_masks_match_the_oracle_loops(algebras4):
    # on every mask s: no translates[x] & ~s for x in s is the loop over each
    # p -> x; a translation-closed s is a subalgebra exactly when it holds the
    # unit; and cross_meets(s, s) within s is closure under compatible meets.
    # Both sides of the last read the compatible-meet table, so they raise
    # alike on a table that has none, except on the empty mask, where the
    # loop reads no meet (no fixpoint set is empty)
    counts = Counter()
    for _, alg in with_broken_copies(algebras4):
        imp, translates = alg.imp, alg.translates
        meets = outcome(lambda: alg.compatible_meet_table)
        counts["tables"] += 1
        counts["tables without compatible meets"] += isinstance(meets, str)
        for s in range(1 << alg.n):
            closed = not any(translates[x] & ~s for x in bits(s))
            assert closed == all(s >> imp[p][x] & 1 for p in alg.elements for x in bits(s)), (imp, s)
            if closed:
                assert bool(s >> alg.one & 1) == is_subalgebra(alg, s), (imp, s)
                counts["closed, nonempty, not a subalgebra"] += s and not is_subalgebra(alg, s)
            got = outcome(lambda: not cross_meets(alg, s, s) & ~s)
            want = outcome(is_relative_subsemilattice, alg, s)
            if s:
                assert got == want, (imp, s)
            else:
                assert want is True and got == (meets if isinstance(meets, str) else True), imp
            counts["masks"] += 1
            counts["not translation closed"] += not closed
            counts["not closed under meets"] += got is False
    # 10 valid tables and 324 broken ones; only a broken table has a nonempty
    # translation-closed subset without the unit
    assert counts == {
        "tables": 334,
        "tables without compatible meets": 62,
        "masks": 5014,
        "not translation closed": 2874,
        "closed, nonempty, not a subalgebra": 12,
        "not closed under meets": 62,
    }


def test_fixpoint_embedding_checks_translation_closure_as_the_oracle_loop(algebras4):
    # the report over a stand-in whose unions of translates are every mask, on every
    # algebra of size <= 4 and every one-cell change of size 3 and 4 (the other
    # structures are the valid algebra's): its translation-closure check has
    # the oracle loop's first witness and count
    reasons = Counter()
    for valid, alg in with_broken_copies(algebras4):
        if alg is valid:  # each valid algebra comes before its broken copies
            ctx = Structures(valid)
        subsets = range(1 << alg.n)
        stand_in = SimpleNamespace(
            alg=alg,
            translate_unions=subsets,
            **{name: getattr(ctx, name) for name in ("ce", "filters", "cross_meets", "retracts", "retract_ce", "monomials")},
        )
        (check,) = [c for c in fixpoint_embedding_report(stand_in).checks if c.name == "special-subsets-translation-closed"]
        want = translation_closed_scan(alg, subsets)
        if want:
            assert (check.witness, check.detail) == (want[0], f"{len(want)} failing instance(s)"), alg.imp
        else:
            assert check.status == "pass", alg.imp
        reasons.update(w.split(" subset=")[0] for w in want)
    assert reasons == {"reason=not translation closed": 2874, "reason=not a subalgebra": 12}


def test_implication_extras(catalog4, godel3):
    ran = 0
    for entry in catalog4:
        if entry.implication_algebra:
            report = implication_extras_report(Structures(entry.algebra))
            assert report.ok, report.as_dict()
            ran += 1
    assert ran >= 4
    # not an implication algebra: one skipped check, and no structure built but the flags
    ctx = Structures(godel3)
    assert implication_extras_report(ctx).as_dict() == {
        "suite": "implication-extras",
        "ok": True,
        "checks": [
            {"name": "precondition", "status": "skip", "detail": "applies to implication algebras only"}
        ],
    }
    assert set(vars(ctx)) == {"alg", "flags"}


def test_fixpoint_filter_characterization(algebras4, godel3, tarski3):
    for alg in algebras4:
        report = fixpoint_filter_report(Structures(alg))
        assert report.ok, report.as_dict()
    # explicit instance on the chain: fixpoints of the translation by a
    fa = fixpoints(godel3, translation(godel3, 1))
    assert fa == mask({0, 2})
    assert not is_filter(godel3, fa)  # 0 <= a but a is missing
    for f in Structures(tarski3).ce.carrier:
        assert is_filter(tarski3, fixpoints(tarski3, f))


def test_finitely_generated_closure_endos(algebras6):
    # the joins of the translations' indices name the composites of translation
    # maps, and over a finite algebra those are every closure endomorphism
    boolean = [[[(top & ~a) | b for b in range(top + 1)] for a in range(top + 1)] for top in (7, 15)]
    others = [validate_hilbert(table, len(table) - 1) for table in (flat_table(7), *boolean)]
    for alg in [*algebras6, *others]:
        ctx = Structures(alg)
        ce = ctx.ce
        got = [ce.carrier[i] for i in ctx.finitely_generated]
        assert got == finitely_generated_ce(alg) == list(ce.carrier), alg.imp


def join_closures(ctx):
    """(name, start, gens, join) of each join closure the library takes on ctx."""
    alg, fl, ce = ctx.alg, ctx.filters, ctx.ce
    principal = [fl.closure(1 << x) for x in alg.elements]
    join = ce.lattice.join_table
    return [
        ("filters", 1 << alg.one, principal, fl.join),
        ("unions of translates", 0, alg.translates, or_),
        ("finitely generated", ce.identity_index, ce.translations, lambda i, t: join[i][t]),
    ]


def join_closure_misses(fold, algebras):
    """The (call site, table) pairs on which fold differs from the worklist."""
    return [
        (name, alg.imp)
        for alg in algebras
        for name, start, gens, join in join_closures(Structures(alg))
        if fold(start, gens, join) != reachable(start, gens, join)
    ]


def test_joins_reach_what_the_worklist_reaches(catalog5):
    # every call site of core.joins folds a semilattice join, so one pass per
    # generator reaches what the worklist reaches; a fold that skips the first
    # or the last generator does not
    algebras = [e.algebra for e in catalog5]
    algebras += [random_extension_algebra(random.Random(seed))[0] for seed, _, _ in RANDOM_EXTENSIONS]
    assert join_closure_misses(joins, algebras) == []
    sites = {"filters", "unions of translates", "finitely generated"}
    skips_first = join_closure_misses(lambda start, gens, join: joins(start, gens[1:], join), algebras)
    assert {name for name, _ in skips_first} == sites
    # each of these algebras has its unit last, so the last generator of the
    # other two sites, {1} or the identity, joins to nothing new
    skips_last = join_closure_misses(lambda start, gens, join: joins(start, gens[:-1], join), algebras)
    assert {name for name, _ in skips_last} == {"unions of translates"}


def test_kernels_fixes_and_monomials_are_the_computed_subsets(catalog5):
    for entry in catalog5:
        alg = entry.algebra
        ctx = Structures(alg)
        ce = ctx.ce
        assert len(ce.kernels) == len(ce.fixes) == len(ce.carrier)
        for i, f in enumerate(ce.carrier):
            assert ce.kernels[i] == kernel(alg, f)
            assert ce.fixes[i] == fixpoints(alg, f)
        # against the filters of the brute-force scan, smallest first
        monomials = [mask(j) for j in filters_brute(alg) if is_monomial_scan(alg, mask(j))]
        assert list(ctx.monomials) == monomials
