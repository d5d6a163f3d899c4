"""Per-layer metrics of the traced run, and what each one is expected to move.

``METRICS`` is the mapping later changes cite by name: for each per-layer
metric, its unit and the end-to-end metric and workload it should move.  The
``per_layer`` list of ``BENCHMARK.json`` is this list, in this order.

Busy time is self time: a span's duration minus its child spans (see
``tracer.py``).  A builder that calls another traced builder is therefore
charged only for its own work; ``all_closure_endos`` does not include the
``all_multipliers`` call it makes, and no builder includes the
``FiniteLattice`` construction it triggers (``lattice.build``).

A workload that never reaches a layer reports 0 for it: no calls, no busy time.
"""

from __future__ import annotations

BUILDERS = [
    "filters.all_filters",
    "multipliers.all_multipliers",
    "closure.all_closure_endos",
    "closure.search_endomorphisms",
    "adjoint.adjoint_semilattice",
    "adjoint.minimal_brouwerian_extension",
]

# the 14 per-algebra suites, in the order hilbertalg.suites.ALGEBRA_SUITES runs them
SUITES = [
    "multiplier-calculus",
    "ce-structure",
    "isotone-kernel-special",
    "idempotent-composition",
    "kernel-embedding",
    "fixpoint-embedding",
    "join-density",
    "adjoint-semilattice",
    "compact-generation",
    "brouwerian-extension",
    "filter-ideal-bridge",
    "implication-extras",
    "finitely-generated-ideal",
    "fixpoint-filter-characterization",
]

_SEARCH = "wall_s on enumerate-6; about 3 % of verify-5; nothing on suites-6"
_ENUM6 = "wall_s on enumerate-6"
_SURVEY = "wall_s and first_block_s on verify-5 only"
_CORE = "wall_s on enumerate-6, then suites-6"
_BUILD = (
    "wall_s and cpu_s on suites-6 and verify-5; one call per algebra on enumerate-6, "
    "where wall_s and peak_rss_mb should not move"
)
_SUITE = "wall_s on suites-6"
_POOL = "wall_s on suites-6 and verify-5; a gain must not cost cpu_s"

METRICS = [
    ("enumeration.search.tables", "count", _SEARCH),
    ("enumeration.search.busy_s", "s", _SEARCH),
    ("enumeration.canonical.calls", "count", _ENUM6),
    ("enumeration.canonical.busy_s", "s", _ENUM6),
    ("enumeration.canonical.useful_ratio", "ratio", _ENUM6),
    ("enumeration.catalog_entry.busy_s", "s", _ENUM6),
    ("enumeration.survey.busy_s", "s", _SURVEY),
    ("enumeration.survey.pairs", "count", _SURVEY),
    ("enumeration.monoid.busy_s", "s", _SURVEY),
    ("enumeration.monoid_iso.calls", "count", _SURVEY),
    ("enumeration.monoid_iso.busy_s", "s", _SURVEY),
    ("enumeration.monoid_colors.busy_s", "s", _SURVEY),
    ("enumeration.are_isomorphic.busy_s", "s", _SURVEY),
    ("core.partial_meet.calls", "count", _CORE),
    ("core.partial_meet.busy_s", "s", _CORE),
    ("core.axiom_violations.calls", "count", _CORE),
    ("core.axiom_violations.busy_s", "s", _CORE),
    ("core.classify.calls", "count", _CORE),
]
for _b in BUILDERS:
    METRICS += [
        (f"{_b}.calls", "count", _BUILD),
        (f"{_b}.busy_s", "s", _BUILD),
        (f"{_b}.calls_per_algebra", "count", _BUILD),
    ]
METRICS += [
    ("lattice.build.calls", "count", "wall_s on suites-6"),
    ("lattice.build.busy_s", "s", "wall_s on suites-6"),
    ("lattice.isomorphism.calls", "count", "wall_s on verify-5"),
    ("lattice.isomorphism.busy_s", "s", "wall_s on verify-5"),
]
METRICS += [(f"suites.{_s}.busy_s", "s", _SUITE) for _s in SUITES]
METRICS += [
    ("suites.algebra_p50_s", "s", _SUITE),
    ("suites.algebra_p89_s", "s", _SUITE + "; the slow tail sets pool stragglers"),
    ("suites.algebra_max_s", "s", _SUITE + "; the slowest algebra bounds the pool's last task"),
    ("suites.pool.efficiency", "ratio", _POOL),
    ("cli.self_s", "s", "wall_s on verify-5"),
    ("trace.overhead", "ratio", "none: traced time over untraced time of the same work"),
]

UNITS = {name: unit for name, unit, _ in METRICS}
# every other per-layer metric is better lower: less time, fewer calls
HIGHER_IS_BETTER = {"enumeration.canonical.useful_ratio", "suites.pool.efficiency"}
# the tail percentile keeps at least this many per-algebra samples beyond it
TAIL_SAMPLES = 10


def median(values):
    s = sorted(values)
    if not s:
        return 0.0
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def tail_percentile(values):
    """(percentile, value) of the highest nearest-rank percentile with at least
    ``TAIL_SAMPLES`` samples above it, or None when there are too few samples."""
    s = sorted(values)
    k = len(s) - 1 - TAIL_SAMPLES
    if k < 0:
        return None
    return (100 * (k + 1)) // len(s), s[k]


def layer_metrics(trace):
    """Per-layer metric values from a traced run's aggregates.

    ``trace`` holds the tracer's ``calls``, ``items``, ``busy`` and
    ``durations`` maps, ``algebras`` (catalog algebras the workload handles),
    ``traced_s`` and ``untraced_s`` (the same work with and without tracing)
    and, for pool workloads, the wall time and worker CPU time of an untraced
    run at ``pool_jobs`` (``pool_wall_s``, ``pool_cpu_s``).
    """
    calls, items, busy = trace["calls"], trace["items"], trace["busy"]
    algebras = trace["algebras"]
    per_algebra = trace["durations"].get("suites.algebra", [])
    overhead = trace["traced_s"] / trace["untraced_s"]

    def c(span):
        return calls.get(span, 0)

    def b(span):
        return busy.get(span, 0.0)

    m = {
        "enumeration.search.tables": items.get("enumeration.search", 0),
        "enumeration.search.busy_s": b("enumeration.search"),
        "enumeration.canonical.calls": c("enumeration.canonical"),
        "enumeration.canonical.busy_s": b("enumeration.canonical"),
        "enumeration.canonical.useful_ratio": (
            c("enumeration.catalog_entry") / c("enumeration.canonical")
            if c("enumeration.canonical")
            else 0.0
        ),
        "enumeration.catalog_entry.busy_s": b("enumeration.catalog_entry"),
        "enumeration.survey.busy_s": b("enumeration.survey"),
        # the survey tests each unordered pair (and each algebra with itself) once
        "enumeration.survey.pairs": c("enumeration.are_isomorphic"),
        "enumeration.monoid.busy_s": b("enumeration.monoid"),
        "enumeration.monoid_iso.calls": c("enumeration.monoid_iso"),
        "enumeration.monoid_iso.busy_s": b("enumeration.monoid_iso"),
        "enumeration.monoid_colors.busy_s": b("enumeration.monoid_colors"),
        "enumeration.are_isomorphic.busy_s": b("enumeration.are_isomorphic"),
        "core.partial_meet.calls": c("core.partial_meet"),
        "core.partial_meet.busy_s": b("core.partial_meet"),
        "core.axiom_violations.calls": c("core.axiom_violations"),
        "core.axiom_violations.busy_s": b("core.axiom_violations"),
        "core.classify.calls": c("core.classify"),
    }
    for name in BUILDERS:
        m[f"{name}.calls"] = c(name)
        m[f"{name}.busy_s"] = b(name)
        m[f"{name}.calls_per_algebra"] = c(name) / algebras
    for span in ("lattice.build", "lattice.isomorphism"):
        m[f"{span}.calls"] = c(span)
        m[f"{span}.busy_s"] = b(span)
    for suite in SUITES:
        m[f"suites.{suite}.busy_s"] = b(f"suites.{suite}")
    tail = tail_percentile(per_algebra)
    m["suites.algebra_p50_s"] = median(per_algebra)
    m["suites.algebra_p89_s"] = tail[1] if tail else 0.0
    m["suites.algebra_max_s"] = max(per_algebra, default=0.0)
    if "pool_wall_s" in trace:
        # share of the pool's capacity its workers spent computing, in one
        # untraced run: startup, idle workers and stragglers lower it
        capacity = trace["pool_jobs"] * trace["pool_wall_s"]
        m["suites.pool.efficiency"] = trace["pool_cpu_s"] / capacity
    else:
        m["suites.pool.efficiency"] = 0.0
    m["cli.self_s"] = b("cli")
    m["trace.overhead"] = overhead
    return m
