import contextlib
import os
import pickle
import random
import signal
import sys
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from hilbertalg import FiniteHilbertAlgebra, Structures, adjoint, cli, closure, core, enumeration, filters, multipliers, report, structures, suites
from hilbertalg.lattice import bound_table
from hilbertalg.suites import (
    ALGEBRA_SUITES,
    iter_catalog,
    run_algebra_suites,
    run_catalog_suites,
)

from test_golden import GOLDEN_DIR, run_cli
from _oracles import random_extension_algebra


@contextlib.contextmanager
def within(seconds):
    """Raise TimeoutError in the block once it has run for ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class ForkRecorder:
    """Wraps ``os.fork``: records the pid of each worker forked from this process."""

    def __init__(self, monkeypatch):
        self.pids = []
        self.real = os.fork
        monkeypatch.setattr(os, "fork", self)

    def __call__(self):
        pid = self.real()
        if pid:
            self.pids.append(pid)
        return pid

    def assert_reaped(self):
        """Every recorded worker has ended and been waited for."""
        for pid in self.pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


def test_pool_never_exceeds_one_worker_per_algebra(monkeypatch, algebras4):
    forks = ForkRecorder(monkeypatch)
    algs = algebras4[:3]
    names = ["join-density"]
    # the parent checks the first algebra, so two workers take the other two
    got = run_catalog_suites(algs, names, jobs=100000)
    assert len(forks.pids) == 2
    assert [[r.as_dict() for r in rs] for rs in got] == [
        [r.as_dict() for r in run_algebra_suites(Structures(a), names)] for a in algs
    ]
    run_catalog_suites(algs, names, jobs=2)
    assert len(forks.pids) == 4
    forks.assert_reaped()


def comparable(items):
    """(reports, survey record) items as plain values."""
    return [
        (
            [r.as_dict() for r in reports],
            (rec.filters.leq, rec.adjoint.leq, rec.monoid.maps, rec.ce_idx, rec.implicative_semilattice),
        )
        for reports, rec in items
    ]


def test_iter_catalog_runs_one_worker_per_item_taken(monkeypatch, algebras4):
    ran = []

    def worker(alg, names, survey):
        ran.append(alg)
        return real(alg, names, survey)

    real = suites._worker
    monkeypatch.setattr(suites, "_worker", worker)
    items = iter_catalog(algebras4, ["join-density"], jobs=1)
    assert ran == []
    next(items)
    assert len(ran) == 1
    items.close()
    assert len(ran) == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_iter_catalog_items_match_each_algebra_run_alone(monkeypatch, algebras4, jobs):
    forks = ForkRecorder(monkeypatch)
    names = ["join-density", "cross-survey"]
    want = comparable(list(iter_catalog(algebras4, names, jobs=jobs, survey=True)))
    assert len(want) == len(algebras4)
    assert comparable(iter_catalog(algebras4, names, jobs=jobs, survey=True)) == want
    # one by one, in catalog order, against each algebra run on its own
    alone = [list(iter_catalog([a], names, survey=True))[0] for a in algebras4]
    assert comparable(alone) == want
    assert len(forks.pids) == (4 if jobs == 2 else 0)
    forks.assert_reaped()


def test_closing_iter_catalog_early_cancels_the_pool(monkeypatch, algebras4):
    parent = os.getpid()

    def stall():
        if os.getpid() != parent:
            time.sleep(90)

    # a worker that takes the fourth algebra would run for a minute and a half
    monkeypatch.setitem(ALGEBRA_SUITES, "join-density", failing_on(algebras4[3], stall))
    forks = ForkRecorder(monkeypatch)
    items = iter_catalog(algebras4, ["join-density"], jobs=2)
    next(items)  # the parent's own item
    next(items)  # the workers' first
    assert len(forks.pids) == 2
    with within(30):
        items.close()
    forks.assert_reaped()


def test_iter_catalog_yields_the_first_item_before_any_pool_starts(monkeypatch, algebras4):
    forks = ForkRecorder(monkeypatch)
    ran = []

    def worker(alg, names, survey):
        ran.append(os.getpid())
        return real(alg, names, survey)

    real = suites._worker
    monkeypatch.setattr(suites, "_worker", worker)
    items = iter_catalog(algebras4, ["join-density"], jobs=2)
    next(items)
    assert ran == [os.getpid()]
    assert forks.pids == []
    items.close()
    assert forks.pids == []


def test_without_fork_every_algebra_is_checked_in_this_process(monkeypatch, algebras4):
    names = ["join-density", "cross-survey"]
    want = comparable(iter_catalog(algebras4, names, jobs=1, survey=True))
    ran = []

    def worker(alg, names, survey):
        ran.append(os.getpid())
        return real(alg, names, survey)

    real = suites._worker
    monkeypatch.setattr(suites, "_worker", worker)
    monkeypatch.delattr(os, "fork")
    assert comparable(iter_catalog(algebras4, names, jobs=2, survey=True)) == want
    assert ran == [os.getpid()] * len(algebras4)


def failing_on(alg, fail):
    """join-density, except that on ``alg`` it calls ``fail()`` instead."""
    real = ALGEBRA_SUITES["join-density"]

    def suite(ctx):
        if ctx.alg.imp == alg.imp:
            fail()
        return real(ctx)

    return suite


def items_until_error(items):
    """The items taken before ``items`` raised, and what it raised."""
    taken = []
    with pytest.raises(Exception) as raised:
        for reports, _ in items:
            taken.append([r.as_dict() for r in reports])
    return taken, raised


def test_an_error_in_a_worker_surfaces_after_the_items_before_its_algebra(monkeypatch, algebras4):
    def fail():
        raise core.InvariantViolation("planted on the fourth algebra")

    # patched before any fork, so the workers inherit the patch
    monkeypatch.setitem(ALGEBRA_SUITES, "join-density", failing_on(algebras4[3], fail))
    results = {jobs: items_until_error(iter_catalog(algebras4, ["join-density"], jobs=jobs)) for jobs in (1, 2)}
    (serial, want), (pooled, got) = results[1], results[2]
    assert len(serial) == 3 and pooled == serial
    assert want.type is core.InvariantViolation and got.type is want.type
    assert str(got.value) == str(want.value) == "planted on the fourth algebra"


def test_a_worker_that_dies_makes_iter_catalog_raise_and_leaves_no_process(monkeypatch, algebras4):
    parent = os.getpid()

    def fail():
        if os.getpid() != parent:
            os._exit(3)

    monkeypatch.setitem(ALGEBRA_SUITES, "join-density", failing_on(algebras4[3], fail))
    with within(30):
        _, raised = items_until_error(iter_catalog(algebras4, ["join-density"], jobs=2))
    assert raised.type is not TimeoutError, "iter_catalog hung after a worker died"
    with pytest.raises(ChildProcessError):  # no child of this process is left, alive or not
        os.waitpid(-1, os.WNOHANG)


def test_more_workers_than_cores_take_every_algebra_once(size5):
    # the workers share one task pipe: an index read twice, or lost, would
    # duplicate an item, drop one or leave the parent waiting
    names = ["join-density"]
    want = [[r.as_dict() for r in rs] for rs in run_catalog_suites(size5, names)]
    with within(60):
        got = run_catalog_suites(size5, names, jobs=(os.cpu_count() or 1) + 2)
    assert [[r.as_dict() for r in rs] for rs in got] == want


def test_pool_refuses_fewer_than_one_job(algebras4):
    with pytest.raises(ValueError):
        run_catalog_suites(algebras4[:2], ["join-density"], jobs=0)


def test_each_record_survives_a_pickle_round_trip(catalog4):
    # the forked workers pickle reports and survey records back to the parent
    entry = catalog4[-1]
    ctx = Structures(entry.algebra)
    reports = run_algebra_suites(ctx, list(ALGEBRA_SUITES))
    records = [
        core.axiom_violations(((2, 2, 2), (0, 2, 2), (0, 0, 2)), 2)[0],
        ctx.flags,
        entry,
        enumeration.survey_record(ctx),
        reports[0].checks[0],
        reports[0],
    ]
    assert [type(r).__name__ for r in records] == [
        "Violation",
        "AlgebraClass",
        "CatalogEntry",
        "SurveyRecord",
        "CheckResult",
        "VerificationReport",
    ]
    for record in records:
        back = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
        assert type(back) is type(record)
        if isinstance(record, enumeration.SurveyRecord):
            # its lattices and monoid compare by identity: compare what they hold
            assert comparable([((), back)]) == comparable([((), record)])
        else:
            assert back == record


def test_the_suites_give_equal_reports_when_run_twice(monkeypatch, algebras4):
    # with the clock stopped, every field of every check is a pure function of the algebra
    monkeypatch.setattr(report, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    for alg in algebras4:
        first = run_algebra_suites(Structures(alg), list(ALGEBRA_SUITES))
        again = run_algebra_suites(Structures(alg), list(ALGEBRA_SUITES))
        assert len(first) == 14 and first == again
        assert first[0] != type(first[0])(first[0].name, first[0].checks[1:])


def test_the_runner_gives_each_suites_own_report(algebras4):
    # each suite decides its own preconditions, so a library call of a suite
    # returns what the runner (and so the CLI) reports for it
    for alg in algebras4:
        for name, suite in ALGEBRA_SUITES.items():
            ctx = Structures(alg)
            ran = [r.as_dict() for r in run_algebra_suites(ctx, [name])]
            assert ran == [suite(ctx).as_dict()], (alg.imp, name)


BUILDERS = [
    "classify",
    "all_multipliers",
    "all_closure_endos",
    "all_filters",
    "search_endomorphisms",
    "adjoint_semilattice",
    "minimal_brouwerian_extension",
]


def boolean4(catalog4):
    """The 4-element Boolean algebra: no suite skips a check on it."""
    return next(
        e.algebra for e in catalog4 if e.implication_algebra and e.implicative_semilattice and e.algebra.n == 4
    )


def test_each_structure_is_built_once_per_algebra(monkeypatch, catalog4):
    calls = {name: 0 for name in BUILDERS}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in BUILDERS:
        monkeypatch.setattr(structures, name, counting(name, getattr(structures, name)))
    reports = run_algebra_suites(Structures(boolean4(catalog4)), list(ALGEBRA_SUITES))
    assert all(r.ok for r in reports)
    assert not any(c.status == "skip" for r in reports for c in r.checks)
    assert calls == {name: 1 for name in BUILDERS}


def test_kernels_and_fixpoint_sets_are_computed_once_per_closure_endomorphism(monkeypatch, catalog4):
    # kernel and fixpoints run on each closure endomorphism once, to build
    # ce.kernels and ce.fixes, which every suite reads; after that they see
    # the carrier's maps only in isotone-kernel-special's scan of every
    # multiplier.  Their other calls take maps the suites build themselves.
    calls = []  # (suite or None, function name, argument)
    running = [None]

    def counting(name, fn):
        def wrapper(*args):
            calls.append((running[0], name, args[-1]))
            return fn(*args)

        return wrapper

    originals = [
        (multipliers.kernel, "kernel"),
        (multipliers.fixpoints, "fixpoints"),
        (filters.monomial_max, "monomial_max"),
    ]
    for fn, name in originals:
        wrapped = counting(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname.startswith("hilbertalg.") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapped)

    def marking(suite, fn):
        def wrapper(ctx):
            running[0] = suite
            try:
                return fn(ctx)
            finally:
                running[0] = None

        return wrapper

    for suite, fn in list(ALGEBRA_SUITES.items()):
        monkeypatch.setitem(ALGEBRA_SUITES, suite, marking(suite, fn))

    ctx = Structures(boolean4(catalog4))
    carrier = ctx.ce.carrier
    assert Counter((name, f) for _, name, f in calls) == Counter(
        (name, f) for name in ("kernel", "fixpoints") for f in carrier
    )
    calls.clear()
    reports = run_algebra_suites(ctx, list(ALGEBRA_SUITES))
    assert all(r.ok for r in reports)
    assert not any(c.status == "skip" for r in reports for c in r.checks)
    on_carrier = Counter(
        (suite, name) for suite, name, f in calls if any(f is g for g in carrier)
    )
    assert len(ctx.multipliers) == len(carrier)  # every multiplier is isotone here
    assert on_carrier == {
        ("isotone-kernel-special", "kernel"): len(carrier),
        ("isotone-kernel-special", "fixpoints"): len(carrier),
    }
    # monomial_max: once per filter and element, to build ctx.monomial_ce
    assert sum(name == "monomial_max" for _, name, _ in calls) == len(ctx.filters) * ctx.alg.n


def test_class_maxima_are_computed_once_per_filter_and_element(monkeypatch, catalog5):
    # over the 14 suites on one Structures, monomial_max sees each (filter,
    # element) at most once: ctx.monomials and every class maximum a suite
    # compares are read from ctx.monomial_ce
    seen = Counter()
    real = filters.monomial_max

    def counting(alg, members, a):
        seen[members, a] += 1
        return real(alg, members, a)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("hilbertalg.") and getattr(module, "monomial_max", None) is real:
            monkeypatch.setattr(module, "monomial_max", counting)
    for alg in (e.algebra for e in catalog5):
        seen.clear()
        ctx = Structures(alg)
        assert all(r.ok for r in run_algebra_suites(ctx, list(ALGEBRA_SUITES))), alg.imp
        assert set(seen) == {(j, a) for j in ctx.filters.carrier for a in alg.elements}, alg.imp
        assert max(seen.values()) == 1, alg.imp


def test_least_above_images_are_computed_once_per_retract(monkeypatch, catalog5):
    # from a fresh Structures, the 14 suites build the least-above map of
    # each union of translates once, and only for ctx.retract_ce: the
    # retracts are the unions it accepts, and every least-above image a
    # suite compares is read from it
    seen = Counter()
    real = closure._least_above

    def counting(alg, members):
        caller = sys._getframe(1)
        assert caller.f_code is closure.ce_from_retract.__code__
        assert caller.f_back.f_code.co_filename == structures.__file__
        seen[members] += 1
        return real(alg, members)

    for alg in (e.algebra for e in catalog5):
        ctx = Structures(alg)
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(closure, "_least_above", counting)
            assert all(r.ok for r in run_algebra_suites(ctx, list(ALGEBRA_SUITES))), alg.imp
        assert set(seen) == set(ctx.translate_unions), alg.imp
        assert set(ctx.ce.fixes) == set(ctx.retracts), alg.imp
        assert max(seen.values()) == 1, alg.imp


def test_bounds_are_computed_once_per_algebra(monkeypatch, catalog4):
    # a fresh copy: the catalog's algebra already holds its tables
    boolean = boolean4(catalog4)
    alg = FiniteHilbertAlgebra(boolean.imp, boolean.one)
    directions = []

    def counting(leq, upper):
        if leq is alg.leq:
            directions.append(upper)
        return bound_table(leq, upper)

    monkeypatch.setattr(core, "bound_table", counting)
    reports = run_algebra_suites(Structures(alg), list(ALGEBRA_SUITES))
    assert all(r.ok for r in reports)
    assert sorted(directions) == [False, True]


def test_each_filter_seed_is_closed_once_per_algebra(monkeypatch, catalog4):
    # patched before the Structures is built, so the filter lattice's memo closes through it
    seeds = Counter()
    real = filters.filter_generated

    def counting(alg, seed):
        seeds[seed] += 1
        return real(alg, seed)

    monkeypatch.setattr(filters, "filter_generated", counting)
    reports = run_algebra_suites(Structures(boolean4(catalog4)), list(ALGEBRA_SUITES))
    assert all(r.ok for r in reports)
    assert seeds and max(seeds.values()) == 1


def test_the_extension_laws_are_checked_once_per_algebra(monkeypatch, algebras4):
    checked = []
    real = adjoint._extension_checks

    def counting(fl):
        checked.append(fl)
        return real(fl)

    monkeypatch.setattr(adjoint, "_extension_checks", counting)
    for alg in algebras4:
        reports = run_algebra_suites(Structures(alg), list(ALGEBRA_SUITES))
        assert all(r.ok for r in reports)
    assert len(checked) == len(algebras4)


def test_verify_reuses_the_workers_structures_for_the_survey(monkeypatch):
    calls = {"all_multipliers": 0, "search_endomorphisms": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(structures, name, counting(name, getattr(structures, name)))
    surveying, built_while_surveying = [], []
    real_survey, real_init = cli.cross_survey_report, Structures.__init__

    def survey(*args):
        surveying.append(True)
        try:
            return real_survey(*args)
        finally:
            surveying.pop()

    def init(self, *args):
        built_while_surveying.extend(surveying)
        real_init(self, *args)

    monkeypatch.setattr(cli, "cross_survey_report", survey)
    monkeypatch.setattr(Structures, "__init__", init)
    out = run_cli(["verify", "--enumerate", "4", "--suite", "all", "--jobs", "1"], {})
    assert out.startswith("enumerated 6 algebra(s) of size 4")
    # only the worker builds structures: verify builds no catalog entry
    assert calls == {"all_multipliers": 6, "search_endomorphisms": 6}
    assert built_while_surveying == []


def survey_only(full):
    """The output of ``--suite cross-survey``, cut out of that of ``--suite all``."""
    lines = full.splitlines()
    start = lines.index("== cross-survey")
    kept = [line for line in lines[:start] if not line.startswith(("-- ", "   "))]
    result = "RESULT: PASS (5 passed, 0 failed, 0 skipped)"
    return "\n".join(kept + lines[start:-1] + [result]) + "\n"


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_survey_alone_matches_the_survey_of_all_suites(size):
    golden = os.path.join(GOLDEN_DIR, f"verify-enumerate-{size}.txt")
    if os.path.exists(golden):
        with open(golden, encoding="utf-8", newline="") as fh:
            full = fh.read()
    else:
        full = run_cli(["verify", "--enumerate", str(size), "--suite", "all"], {})
    for jobs in ("1", "2"):
        got = run_cli(["verify", "--enumerate", str(size), "--suite", "cross-survey", "--jobs", jobs], {})
        assert got == survey_only(full)


# (seed, size, |O(P)|) of random_extension_algebra(random.Random(seed)): the
# samples of 17 to 24 elements among seeds 0 to 299 (none has 22 to 24)
RANDOM_EXTENSIONS = ((142, 19, 56), (147, 17, 24), (204, 20, 36), (227, 19, 48), (232, 21, 36))


def test_random_extension_algebras_above_the_bound_pass_every_suite():
    # random ->-subalgebras S of O(P), above the catalog's bound: all 14
    # suites pass, and S has as many filters as P has down-sets
    for seed, size, downsets in RANDOM_EXTENSIONS:
        alg, ideals = random_extension_algebra(random.Random(seed))
        assert (alg.n, ideals) == (size, downsets), seed
        ctx = Structures(alg)
        reports = run_algebra_suites(ctx, list(ALGEBRA_SUITES))
        assert len(reports) == 14, seed
        assert all(r.ok for r in reports), (seed, [r.as_dict() for r in reports if not r.ok])
        assert len(ctx.filters) == ideals, seed


def test_random_extension_algebras_have_the_predicted_lattice_sizes():
    # S a ->-subalgebra of O(P) holding its meet-irreducibles: the filters,
    # the special closure retracts and the closure endomorphisms each number
    # |O(P)|, and S is an implicative semilattice exactly when S = O(P); seeds
    # 0 to 99 give 99 algebras of at most 16 elements, and one of 38 (seed 25)
    semilattices = []
    for seed in range(100):
        alg, ideals = random_extension_algebra(random.Random(seed))
        if seed == 25:
            assert alg.n == 38
            continue
        assert alg.n <= 16, seed
        ctx = Structures(alg)
        assert len(ctx.filters) == len(ctx.retracts) == len(ctx.ce.carrier) == ideals, seed
        assert ctx.flags.implicative_semilattice == (alg.n == ideals), seed
        if alg.n == ideals:
            semilattices.append(seed)
    assert semilattices == [42]
