"""Programs the harness starts in a fresh interpreter and times from outside.

    python3 perfbench/child.py setup WORKLOAD SEED  set-up: import, load and validate inputs
    python3 perfbench/child.py suites JOBS          the suites-6 batch; tables on stdin
    python3 perfbench/child.py trace suites         traced suites run at jobs=1; tables on stdin
    python3 perfbench/child.py trace cli ARGS...    traced in-process run of ``hilbertalg ARGS``

A traced run also times its untraced references and prints one JSON object.

``hilbertalg`` is found through ``PYTHONPATH``, which the harness points at the
checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOG = os.path.join(HERE, "catalog6.json")
GOLDENS = os.path.join(HERE, "goldens.json")

POOL_JOBS = 2
# suites-6 overhead reference: every SUBSET_STEP-th algebra, untraced at jobs=1
SUBSET_STEP = 10


def cli_argv(workload, jobs):
    """Arguments of the CLI run of an ``enumerate-N`` or ``verify-N`` workload.

    The catalog size N is the workload name's suffix.
    """
    kind, size = workload.split("-")
    if kind == "enumerate":
        return ["enumerate", size]
    return ["verify", "--enumerate", size, "--suite", "all", "--jobs", str(jobs)]


def relabel(table, rng):
    """The table with its non-unit elements permuted at random; the unit stays last."""
    n = len(table)
    perm = list(range(n - 1))
    rng.shuffle(perm)
    perm.append(n - 1)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out


def statuses(reports):
    """(suite, check, status, detail) of every check, in report order.

    Relabelling an algebra leaves these unchanged: the detail text of a
    passing or skipped check holds only counts and flags, never elements.
    """
    return [[r.name, c.name, c.status, c.detail or ""] for r in reports for c in r.checks]


def multiset_digest(checks):
    """SHA-256 of the multiset of ``statuses`` rows: independent of check order."""
    lines = sorted("\t".join(row) for row in checks)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def algebra_suites():
    from hilbertalg.suites import CROSS_SUITE, suite_names

    return [n for n in suite_names() if n != CROSS_SUITE]


def cmd_setup(workload, seed):
    from hilbertalg.core import axiom_violations

    if workload != "suites-6":
        json.dump([], sys.stdout)
        return 0
    with open(CATALOG, "rb") as fh:
        data = fh.read()
    with open(GOLDENS, encoding="utf-8") as fh:
        expected = json.load(fh)["suites-6"]["catalog_sha256"]
    if hashlib.sha256(data).hexdigest() != expected:
        print("catalog6.json does not match its golden digest", file=sys.stderr)
        return 1
    rng = random.Random(seed)
    tables = [relabel(t, rng) for t in json.loads(data)]
    for i, t in enumerate(tables):
        if axiom_violations(t, len(t) - 1):
            print(f"input table {i} is not a Hilbert algebra", file=sys.stderr)
            return 1
    json.dump(tables, sys.stdout, separators=(",", ":"))
    return 0


def _algebras(tables):
    from hilbertalg.core import FiniteHilbertAlgebra

    return [FiniteHilbertAlgebra(t, len(t) - 1) for t in tables]


def _timed_cli(argv):
    """(seconds, exit code, stdout SHA-256) of an in-process CLI run."""
    from hilbertalg import cli

    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    elapsed = time.perf_counter() - start
    return elapsed, rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _timed_suites(algs, jobs):
    from hilbertalg.suites import run_catalog_suites

    start = time.perf_counter()
    results = run_catalog_suites(algs, algebra_suites(), jobs=jobs)
    return time.perf_counter() - start, [statuses(r) for r in results]


def cmd_suites(jobs):
    """Each algebra's statuses on one line, flushed as soon as the program
    hands its reports over, so the harness sees when the first one arrives."""
    from hilbertalg.suites import run_catalog_suites

    algs = _algebras(json.load(sys.stdin))
    for reports in run_catalog_suites(algs, algebra_suites(), jobs=jobs):
        print(json.dumps(statuses(reports), separators=(",", ":")), flush=True)
    return 0


def _timed_pool(algs):
    """(wall seconds, CPU seconds of the pool's workers, statuses) at POOL_JOBS."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall, results = _timed_suites(algs, POOL_JOBS)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)  # the pool reaped its workers
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return wall, cpu, results


def _aggregates(tracer):
    return {
        "calls": dict(tracer.calls),
        "items": dict(tracer.items),
        "busy": dict(tracer.busy),
        "durations": {k: list(v) for k, v in tracer.durations.items()},
    }


def cmd_trace(kind, argv):
    from hilbertalg.enumeration import enumerate_algebras

    from tracer import Tracer, install

    out = {"cli_runs": [], "suite_runs": []}
    tracer = Tracer()
    if kind == "suites":
        algs = _algebras(json.load(sys.stdin))
        everything = list(range(len(algs)))
        out["pool_jobs"] = POOL_JOBS
        out["pool_wall_s"], out["pool_cpu_s"], results = _timed_pool(algs)
        out["suite_runs"].append({"indices": everything, "statuses": results})
        # each reference algebra runs untraced right before its traced run,
        # so drift in the machine's speed cancels out of the overhead; both
        # sides time the same call
        subset = everything[::SUBSET_STEP]
        out["untraced_s"] = out["traced_s"] = 0.0
        traced = []
        for i, alg in enumerate(algs):
            if i in subset:
                seconds, results = _timed_suites([alg], 1)
                out["untraced_s"] += seconds
                out["suite_runs"].append({"indices": [i], "statuses": results})
            restore = install(tracer)
            try:
                seconds, results = _timed_suites([alg], 1)
            finally:
                restore()
            traced += results
            if i in subset:
                out["traced_s"] += seconds
        out["suite_runs"].append({"indices": everything, "statuses": traced})
        out["algebras"] = len(algs)
    else:
        before, rc, digest = _timed_cli(argv)
        out["cli_runs"].append({"rc": rc, "sha256": digest})
        if argv[0] == "verify":
            size = int(argv[argv.index("--enumerate") + 1])
            out["pool_jobs"] = POOL_JOBS
            pool = _timed_pool(enumerate_algebras(size).algebras())
            out["pool_wall_s"], out["pool_cpu_s"] = pool[:2]
        restore = install(tracer)
        try:
            out["traced_s"], rc, digest = _timed_cli(argv)
        finally:
            restore()
        out["cli_runs"].append({"rc": rc, "sha256": digest})
        # untraced runs on both sides of the traced one, so drift cancels
        after, rc, digest = _timed_cli(argv)
        out["cli_runs"].append({"rc": rc, "sha256": digest})
        out["untraced_s"] = (before + after) / 2
        span = "enumeration.catalog_entry" if argv[0] == "enumerate" else "suites.algebra"
        out["algebras"] = tracer.calls[span]
    out.update(_aggregates(tracer))
    json.dump(out, sys.stdout, separators=(",", ":"))
    return 0


def main(argv):
    cmd = argv[0]
    if cmd == "setup":
        return cmd_setup(argv[1], int(argv[2]))
    if cmd == "suites":
        return cmd_suites(int(argv[1]))
    if cmd == "trace":
        return cmd_trace(argv[1], argv[2:])
    print(f"unknown command {cmd!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
