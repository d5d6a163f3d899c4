"""Acceptance criteria, one test per criterion.

Every criterion prints a single PASS/FAIL line (run with -s to watch).  All
comparisons are exact discrete equalities; there are no numeric tolerances
anywhere.
"""

import os
import subprocess
import sys

import hilbertalg
from hilbertalg import (
    Structures,
    all_closure_endos,
    all_filters,
    all_multipliers,
    cross_survey_report,
    enumerate_algebras,
    search_valid_tables,
)
from hilbertalg.adjoint import (
    adjoint_iso_report,
    brouwerian_extension_report,
    fg_ideal_report,
    filter_ideal_bridge_report,
    join_density_report,
)
from hilbertalg.closure import (
    ce_structure_report,
    fixpoint_embedding_report,
    fixpoint_filter_report,
    idempotent_composition_report,
    implication_extras_report,
    isotone_kernel_special_report,
    kernel_embedding_report,
)
from hilbertalg.enumeration import survey_record
from hilbertalg.multipliers import multiplier_calculus_report

from _oracles import valid_tables_brute


def conclude(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {number} failed: {detail}"


def failing(report):
    return [c for c in report.checks if c.status == "fail"]


def run_reports(entries, report_fns):
    bad = []
    for entry in entries:
        ctx = Structures(entry.algebra)
        for fn in report_fns:
            for c in failing(fn(ctx)):
                bad.append((entry.algebra.imp, c.name, c.witness))
    return bad


def test_acceptance_1_validator_soundness():
    # full scan at n <= 3, axiom-pinned scan at n = 4, against the search
    ok = True
    for n in (1, 2, 3):
        ok = ok and sorted(search_valid_tables(n)) == valid_tables_brute(
            n, pin_axiom_cells=False
        )
    ok = ok and sorted(search_valid_tables(4)) == valid_tables_brute(4)
    count3 = len(enumerate_algebras(3).entries)
    ok = ok and count3 == 2
    conclude(1, ok, f"brute-force agreement n<=4; size-3 catalog has {count3} algebras")


def test_acceptance_2_multiplier_calculus(catalog5):
    bad = run_reports(catalog5, [multiplier_calculus_report])
    conclude(2, not bad, f"laws (a)-(i) on {len(catalog5)} algebras; failures: {bad[:1]}")


def test_acceptance_3_ce_structure(catalog5):
    bad = run_reports(catalog5, [ce_structure_report])
    conclude(3, not bad, f"lattice structure + dual route on {len(catalog5)} algebras; failures: {bad[:1]}")


def test_acceptance_4_isotone_kernel_special_and_idempotent_lemma(catalog4):
    bad = run_reports(catalog4, [isotone_kernel_special_report, idempotent_composition_report])
    conclude(4, not bad, f"multiplier/endomorphism characterizations on {len(catalog4)} algebras; failures: {bad[:1]}")


def test_acceptance_5_kernel_embedding(catalog5):
    bad = run_reports(catalog5, [kernel_embedding_report])
    counts_ok = all(e.ce_count == e.filter_count for e in catalog5)
    conclude(5, not bad and counts_ok, f"kernel embedding on {len(catalog5)} algebras; failures: {bad[:1]}")


def test_acceptance_6_fixpoint_embedding(catalog5):
    bad = run_reports(catalog5, [fixpoint_embedding_report])
    conclude(6, not bad, f"fixpoint anti-embedding on {len(catalog5)} algebras; failures: {bad[:1]}")


def test_acceptance_7_implication_algebra_suite(catalog5):
    bad = []
    for entry in catalog5:
        ctx = Structures(entry.algebra)
        if entry.implication_algebra:
            for fn in (implication_extras_report, fg_ideal_report):
                for c in failing(fn(ctx)):
                    bad.append((entry.algebra.imp, c.name, c.witness))
        for c in failing(fixpoint_filter_report(ctx)):
            bad.append((entry.algebra.imp, c.name, c.witness))
    impl = sum(1 for e in catalog5 if e.implication_algebra)
    conclude(7, not bad, f"{impl} implication algebras of {len(catalog5)}; failures: {bad[:1]}")


def test_acceptance_8_adjoint_suite(catalog5):
    from hilbertalg import translation

    from _oracles import subtraction

    bad = run_reports(
        catalog5,
        [join_density_report, adjoint_iso_report, brouwerian_extension_report, filter_ideal_bridge_report],
    )
    for entry in catalog5:
        alg = entry.algebra
        carrier = Structures(alg).ce.carrier
        for p in alg.elements:
            for q in alg.elements:
                got = subtraction(alg, translation(alg, p), translation(alg, q), carrier)
                if got != translation(alg, alg.imp[p][q]):
                    bad.append((alg.imp, "translation-subtraction", (p, q)))
    conclude(8, not bad, f"adjoint suite on {len(catalog5)} algebras; failures: {bad[:1]}")


def test_acceptance_9_cross_survey(catalog4):
    algebras = [e.algebra for e in catalog4]
    report = cross_survey_report(algebras, [survey_record(Structures(a)) for a in algebras])
    bad = failing(report)
    detail = next(
        (c.detail for c in report.checks if c.detail is not None), ""
    )
    conclude(9, not bad, f"cross survey ({detail}); failures: {[c.witness for c in bad][:1]}")


def test_acceptance_10_deterministic_reports():
    # the child imports the package the tests import, installed or not
    src = os.path.dirname(os.path.dirname(hilbertalg.__file__))

    def run(jobs):
        return subprocess.run(
            [sys.executable, "-m", "hilbertalg", "verify", "--enumerate", "4",
             "--suite", "all", "--jobs", str(jobs)],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=src),
        ).stdout
    first, second = run(1), run(2)
    ok = first == second and "RESULT: PASS" in first
    conclude(10, ok, f"byte-identical verify output across worker counts ({len(first)} bytes)")


def test_catalog_statistics_are_coherent(catalog5):
    # not a numbered criterion: the catalog invariants used throughout
    for e in catalog5:
        assert len(all_filters(e.algebra)) == e.filter_count
        assert len(all_multipliers(e.algebra)) == e.multiplier_count
        assert len(all_closure_endos(e.algebra, all_multipliers(e.algebra))) == e.ce_count
        if e.implication_algebra:
            assert e.multiplier_count == e.ce_count
