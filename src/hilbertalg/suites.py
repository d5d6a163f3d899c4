"""Named verification suites and the machinery to run them, possibly in parallel.

Every suite takes the ``Structures`` context of one algebra, so the suites
run on an algebra share each structure they build, and so does the
algebra's cross-survey record when the worker is asked for one.  A catalog
run with several jobs checks its first algebra in the calling process and
then forks worker processes for the rest.  Workers inherit the algebras,
suite names and that request, are sent only algebra indices, and send
back each pickled item; every suite is a pure function of the algebra,
so reports are identical for any worker count.
"""

from __future__ import annotations

import os
import sys

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


def _worker(alg, names, survey):
    """(reports, survey record or None) of ``alg``, from one ``Structures``."""
    ctx = Structures(alg)
    reports = run_algebra_suites(ctx, names)
    return reports, survey_record(ctx) if survey else None


def _serve(tasks, results, algebras, names, survey):
    """The loop of one forked worker: read the next 4-byte index from the
    shared pipe ``tasks`` until it ends, and write each (index, failed,
    item or (exception, its traceback)) to its own pipe ``results`` as one
    length-prefixed pickle."""
    import pickle

    with open(results, "wb") as out:
        while index := os.read(tasks, 4):
            i = int.from_bytes(index, "little")
            try:
                failed, item = False, _worker(algebras[i], names, survey)
            except Exception as e:
                import traceback

                failed, item = True, (e, traceback.format_exc())
            frame = pickle.dumps((i, failed, item), pickle.HIGHEST_PROTOCOL)
            out.write(len(frame).to_bytes(8, "little") + frame)
            out.flush()


def _forked_items(algebras, names, survey, workers):
    """Yield ``_worker`` of each algebra, in order, from ``workers`` forked processes.

    The workers inherit the algebras and take their indices from one shared
    task pipe, which is kept at most two per worker deep, so the algebras
    are handed out as workers come free.  Every result pipe is drained as
    its data arrives, however far it runs ahead of the item yielded next.
    An exception a worker caught is raised once every item before its
    algebra is yielded; a worker that ends any other way raises
    ``RuntimeError``.  Closing early kills the workers; every pipe is closed
    and every worker reaped before this returns or raises.
    """
    import pickle
    import select
    import signal

    # each worker gets a copy of every unflushed buffer; flushed, it holds none to write
    for stream in (sys.stdout, sys.stderr):
        stream.flush()
    total, queued, done, want = len(algebras), 0, {}, 0
    tasks_r, tasks_w = os.pipe()
    readers = {}  # the result pipe of each worker not yet reaped -> its pid

    def feed(count):
        nonlocal queued, tasks_w
        upto = min(total, queued + count)
        os.write(tasks_w, b"".join(i.to_bytes(4, "little") for i in range(queued, upto)))
        queued = upto
        if queued == total:  # the workers read the end of the pipe and leave
            os.close(tasks_w)
            tasks_w = None

    def reap(fd, kill=False):
        os.close(fd)
        pid = readers.pop(fd)
        if kill:
            os.kill(pid, signal.SIGKILL)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    try:
        feed(2 * workers)
        for _ in range(workers):
            results_r, results_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(results_r)
                os.close(results_w)
                raise
            if pid == 0:  # the worker never returns from here
                code = 1
                try:
                    # only the parent may hold the task pipe's write end and
                    # the other workers' result pipes, or they never end
                    for fd in [results_r, tasks_w, *readers]:
                        if fd is not None:
                            os.close(fd)
                    _serve(tasks_r, results_w, algebras, names, survey)
                    code = 0
                finally:
                    os._exit(code)
            os.close(results_w)
            readers[results_r] = pid
        os.close(tasks_r)
        tasks_r = None
        poller = select.poll()
        for fd in readers:
            poller.register(fd, select.POLLIN)
        buffers = {fd: bytearray() for fd in readers}
        while want < total:
            if want in done:
                failed, item = done.pop(want)
                want += 1
                if failed:
                    error, trace = item
                    raise error from RuntimeError(f"in a catalog worker:\n{trace}")
                yield item
                continue
            if not readers:
                raise RuntimeError("the catalog workers ended before every algebra was checked")
            for fd, _ in poller.poll():
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    poller.unregister(fd)
                    exit_code = reap(fd)
                    if exit_code:
                        raise RuntimeError(f"a catalog worker ended with exit code {exit_code}")
                    continue
                buf = buffers[fd]
                buf += chunk
                while len(buf) >= 8:
                    end = 8 + int.from_bytes(buf[:8], "little")
                    if len(buf) < end:
                        break
                    i, failed, item = pickle.loads(buf[8:end])
                    del buf[:end]
                    done[i] = failed, item
                    if tasks_w is not None:
                        feed(1)
    finally:
        for fd in (tasks_r, tasks_w):
            if fd is not None:
                os.close(fd)
        # once the last item is out, every worker has only to read the end of
        # the task pipe and leave by itself
        for fd in list(readers):
            reap(fd, kill=want < total)


def iter_catalog(algebras, names, jobs=1, survey=False):
    """Yield (reports, survey record or None) for each algebra, in catalog order.

    Each item is computed when it is asked for.  With more than one job and
    more than one algebra, the first algebra is still checked in this
    process, and only then are worker processes forked, which take the
    algebras after the first; each of their items is yielded as soon as it
    and every item before it are done.  Closing the generator early stops
    and reaps the workers, and closing it after the first item forks none.
    Where ``os.fork`` is missing, every algebra is checked in this process.
    With ``survey`` each item also holds the ``survey_record`` of its
    algebra.  At most one worker per algebra after the first is forked,
    however large jobs is.  Each algebra is checked as given, not rebuilt
    from its table, so it keeps the tables it caches on first use.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    algebras, names = list(algebras), tuple(names)
    if jobs == 1 or len(algebras) < 2 or not hasattr(os, "fork"):
        for alg in algebras:
            yield _worker(alg, names, survey)
        return
    # the parent checks the first algebra before any fork, so its item
    # does not wait for the workers to start and hand a result back
    yield _worker(algebras[0], names, survey)
    yield from _forked_items(algebras[1:], names, survey, min(jobs, len(algebras) - 1))


def run_catalog_suites(algebras, names, jobs=1):
    """Per-algebra reports for each algebra, in catalog order."""
    return [reports for reports, _ in iter_catalog(algebras, names, jobs)]
