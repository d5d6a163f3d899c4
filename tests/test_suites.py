import pytest

from hilbertalg import structures, suites
from hilbertalg.suites import ALGEBRA_SUITES, run_algebra_suites, run_catalog_suites


class PoolRecorder:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        PoolRecorder.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_never_exceeds_one_worker_per_algebra(monkeypatch, algebras4):
    monkeypatch.setattr(suites, "ProcessPoolExecutor", PoolRecorder)
    PoolRecorder.sizes = []
    algs = algebras4[:3]
    names = ["join-density"]
    got = run_catalog_suites(algs, names, jobs=100000)
    assert PoolRecorder.sizes == [3]
    assert [[r.as_dict() for r in rs] for rs in got] == [
        [r.as_dict() for r in run_algebra_suites(a, names)] for a in algs
    ]
    run_catalog_suites(algs, names, jobs=2)
    assert PoolRecorder.sizes == [3, 2]


def test_pool_refuses_fewer_than_one_job(algebras4):
    with pytest.raises(ValueError):
        run_catalog_suites(algebras4[:2], ["join-density"], jobs=0)


BUILDERS = [
    "classify",
    "all_multipliers",
    "all_closure_endos",
    "all_filters",
    "search_endomorphisms",
    "finitely_generated_ce",
    "special_subsets",
    "special_closure_retracts",
    "adjoint_semilattice",
    "minimal_brouwerian_extension",
]


def test_each_structure_is_built_once_per_algebra(monkeypatch, catalog4):
    calls = {name: 0 for name in BUILDERS}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in BUILDERS:
        monkeypatch.setattr(structures, name, counting(name, getattr(structures, name)))
    # a Boolean algebra: no suite skips a check on it
    boolean = next(
        e.algebra for e in catalog4 if e.implication_algebra and e.implicative_semilattice and e.algebra.n == 4
    )
    reports = run_algebra_suites(boolean, list(ALGEBRA_SUITES))
    assert all(r.ok for r in reports)
    assert not any(c.status == "skip" for r in reports for c in r.checks)
    assert calls == {name: 1 for name in BUILDERS}
