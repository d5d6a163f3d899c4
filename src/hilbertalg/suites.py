"""Named verification suites and the machinery to run them, possibly in parallel.

Every suite takes the ``Structures`` context of one algebra, so the suites
run on an algebra share each structure they build.  Workers only ever
receive plain tables and suite names, and every suite is a pure function of
the algebra, so reports are identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from .adjoint import (
    adjoint_iso_report,
    brouwerian_extension_report,
    compact_generation_report,
    fg_ideal_report,
    filter_ideal_bridge_report,
    join_density_report,
)
from .closure import (
    ce_structure_report,
    fixpoint_embedding_report,
    fixpoint_filter_report,
    idempotent_composition_report,
    implication_extras_report,
    isotone_kernel_special_report,
    kernel_embedding_report,
)
from .core import FiniteHilbertAlgebra
from .multipliers import multiplier_calculus_report
from .report import ReportBuilder
from .structures import Structures

ALGEBRA_SUITES = {
    "multiplier-calculus": multiplier_calculus_report,
    "ce-structure": ce_structure_report,
    "isotone-kernel-special": isotone_kernel_special_report,
    "idempotent-composition": idempotent_composition_report,
    "kernel-embedding": kernel_embedding_report,
    "fixpoint-embedding": fixpoint_embedding_report,
    "join-density": join_density_report,
    "adjoint-semilattice": adjoint_iso_report,
    "compact-generation": compact_generation_report,
    "brouwerian-extension": brouwerian_extension_report,
    "filter-ideal-bridge": filter_ideal_bridge_report,
    "implication-extras": implication_extras_report,
    "finitely-generated-ideal": fg_ideal_report,
    "fixpoint-filter-characterization": fixpoint_filter_report,
}

# suites that only apply to implication algebras; skipped elsewhere
IMPLICATION_ONLY = {"implication-extras", "finitely-generated-ideal"}

CROSS_SUITE = "cross-survey"


def suite_names():
    return list(ALGEBRA_SUITES) + [CROSS_SUITE]


def resolve_suites(requested):
    names = []
    for name in requested:
        if name == "all":
            names.extend(suite_names())
        elif name in ALGEBRA_SUITES or name == CROSS_SUITE:
            names.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    seen = set()
    return [n for n in names if not (n in seen or seen.add(n))]


def run_algebra_suites(alg, names):
    reports = []
    ctx = Structures(alg)
    for name in names:
        if name == CROSS_SUITE:
            continue
        if name in IMPLICATION_ONLY and not ctx.flags.implication_algebra:
            b = ReportBuilder(name)
            b.skip("precondition", "applies to implication algebras only")
            reports.append(b.done())
            continue
        reports.append(ALGEBRA_SUITES[name](ctx))
    return reports


def _worker(payload):
    table, one, names = payload
    return run_algebra_suites(FiniteHilbertAlgebra(table, one), names)


def run_catalog_suites(algebras, names, jobs=1):
    """Per-algebra reports for each algebra, in catalog order.

    At most one worker process per algebra is started, however large jobs is.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    payloads = [(alg.imp, alg.one, tuple(names)) for alg in algebras]
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            return list(pool.map(_worker, payloads))
    return [_worker(p) for p in payloads]
