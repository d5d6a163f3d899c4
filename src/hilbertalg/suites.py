"""Named verification suites and the machinery to run them, possibly in parallel.

Every suite takes the ``Structures`` context of one algebra, so the suites
run on an algebra share each structure they build, and so does the
algebra's cross-survey record when the worker is asked for one.  A catalog
run with several jobs checks its first algebra in the calling process and
hands the rest to a pool of worker processes.  Workers only ever receive
plain tables, suite names and that request, and every suite is a pure
function of the algebra, so reports are identical for any worker count.
"""

from __future__ import annotations

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
from .enumeration import survey_record
from .multipliers import multiplier_calculus_report
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


def run_algebra_suites(ctx, names):
    """The reports of the named algebra suites on the context ``ctx``.

    Each suite decides for itself whether it applies to the algebra.
    """
    return [ALGEBRA_SUITES[name](ctx) for name in names if name != CROSS_SUITE]


def _worker(payload):
    """(reports, survey record or None) of one algebra, from one ``Structures``."""
    table, one, names, survey = payload
    ctx = Structures(FiniteHilbertAlgebra(table, one))
    reports = run_algebra_suites(ctx, names)
    return reports, survey_record(ctx) if survey else None


def iter_catalog(algebras, names, jobs=1, survey=False):
    """Yield (reports, survey record or None) for each algebra, in catalog order.

    Each item is computed when it is asked for.  With more than one job and
    more than one algebra, the first algebra is still checked in this
    process, and only then does a pool start, whose workers take the
    algebras after the first; each of their items is yielded as soon as it
    and every item before it are done.  Closing the generator early cancels
    the algebras not yet started, and closing it after the first item
    starts no pool.  With ``survey`` each item also holds the
    ``survey_record`` of its algebra.  At most one worker process per
    algebra after the first is started, however large jobs is.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    payloads = [(alg.imp, alg.one, tuple(names), survey) for alg in algebras]
    if jobs == 1 or len(payloads) < 2:
        yield from map(_worker, payloads)
        return
    # the parent checks the first algebra while no pool exists, so its item
    # does not wait for the import, the fork and a round trip
    yield _worker(payloads[0])
    # imported here: enumerate and one-job runs start no pool, and skip loading it
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=min(jobs, len(payloads) - 1))
    try:
        yield from pool.map(_worker, payloads[1:])
    finally:
        pool.shutdown(cancel_futures=True)


def run_catalog_suites(algebras, names, jobs=1):
    """Per-algebra reports for each algebra, in catalog order."""
    return [reports for reports, _ in iter_catalog(algebras, names, jobs)]
