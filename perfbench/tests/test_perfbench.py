"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests    (from the root of a checkout)

The smoke tests run every workload path, timed and traced, on size-4 inputs
with goldens computed here from the same code, so they check the harness and
not the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, install  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [2, 5] and c [6, 8]; c holds d [6.5, 7]; only b's
    # name is one whose durations are kept
    b = "suites.algebra"
    tr = Tracer(clock=FakeClock([0, 2, 5, 6, 6.5, 7, 8, 10]))
    tr.enter("a")
    tr.enter(b)
    tr.exit()
    tr.enter("c")
    tr.enter("d")
    tr.exit()
    tr.exit()
    tr.exit()
    assert dict(tr.busy) == {"a": 5.0, b: 3.0, "c": 1.5, "d": 0.5}
    assert dict(tr.calls) == {"a": 1, b: 1, "c": 1, "d": 1}
    assert dict(tr.durations) == {b: [3.0]}


def test_spans_close_on_exceptions_and_count_generator_items():
    tr = Tracer(clock=FakeClock(range(100)))

    def boom():
        raise KeyError("x")

    def gen():
        yield 1
        yield 2

    with pytest.raises(KeyError):
        tr.span(boom, "boom")()
    assert list(tr.generator_span(gen, "gen")()) == [1, 2]
    assert tr.calls["boom"] == 1
    assert tr.calls["gen"] == 3  # two items and the final StopIteration
    assert tr.items["gen"] == 2
    assert tr._stack == []


def test_install_traces_cross_module_imports_and_restores():
    from hilbertalg import adjoint, core, enumeration
    from hilbertalg.suites import ALGEBRA_SUITES

    originals = (core.partial_meet, adjoint.partial_meet, dict(ALGEBRA_SUITES))
    tr = Tracer()
    restore = install(tr)
    try:
        assert adjoint.partial_meet is core.partial_meet is not originals[0]
        cat = enumeration.enumerate_algebras(3)
    finally:
        restore()
    assert (core.partial_meet, adjoint.partial_meet, dict(ALGEBRA_SUITES)) == originals
    assert tr.items["enumeration.search"] == cat.raw_count == 3
    assert tr.calls["enumeration.canonical"] == 3
    assert tr.calls["enumeration.catalog_entry"] == 2


def test_tail_percentile_keeps_ten_samples_beyond():
    assert layers.tail_percentile(range(10)) is None
    assert layers.tail_percentile(range(11)) == (9, 0)
    assert layers.tail_percentile(range(95)) == (89, 84)
    assert layers.tail_percentile(range(100)) == (90, 89)
    assert layers.tail_percentile(list(range(95))[::-1]) == (89, 84)


def test_median():
    assert layers.median([3, 1, 2]) == 2
    assert layers.median([4, 1, 2, 3]) == 2.5


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, "higher" if name in layers.HIGHER_IS_BETTER else "lower")
        for name, unit, _ in layers.METRICS
    ]


def test_cli_arguments_take_the_size_from_the_workload_name():
    assert child.cli_argv("enumerate-6", 2) == ["enumerate", "6"]
    assert child.cli_argv("verify-5", 2) == [
        "verify", "--enumerate", "5", "--suite", "all", "--jobs", "2"
    ]


def test_suite_list_matches_the_program():
    from hilbertalg.suites import ALGEBRA_SUITES

    assert layers.SUITES == list(ALGEBRA_SUITES) == child.algebra_suites()


def test_relabelling_keeps_the_unit_and_the_axioms():
    import random

    from hilbertalg.core import axiom_violations

    with open(child.CATALOG, encoding="utf-8") as fh:
        tables = json.load(fh)
    rng = random.Random(7)
    for t in tables[:10]:
        r = child.relabel(t, rng)
        assert r[-1] == list(range(len(t)))  # the unit row is still the identity
        assert not axiom_violations(r, len(r) - 1)


def test_catalog_counts_for_small_sizes_match_the_goldens():
    with open(child.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)["enumerate"]
    assert [goldens[str(n)]["classes"] for n in range(1, 7)] == [1, 1, 2, 6, 21, 95]
    assert [goldens[str(n)]["raw"] for n in (4, 5, 6)] == [22, 303, 7021]
    for n in range(1, 6):
        out = _cli(["enumerate", str(n)])
        assert hashlib.sha256(out).hexdigest() == goldens[str(n)]["stdout_sha256"]


# ---------------------------------------------------------------------------
# size-4 smoke runs of the three workload paths

# the workloads' size-4 twins: the catalog size is the name's suffix
SMALL = [w.split("-")[0] + "-4" for w in run.WORKLOADS]


def _cli(args):
    return subprocess.run(
        [sys.executable, "-m", "hilbertalg", *args],
        capture_output=True,
        check=True,
        cwd=ROOT,
        env=_env(),
    ).stdout


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


@pytest.fixture(scope="module")
def small():
    """Size-4 inputs and goldens; the harness runs from the root of the checkout."""
    from hilbertalg.enumeration import enumerate_algebras
    from hilbertalg.suites import run_catalog_suites

    algs = enumerate_algebras(4).algebras()
    enum_out = _cli(child.cli_argv("enumerate-4", 1))
    goldens = {
        "enumerate": {
            "4": {
                "classes": 6,
                "raw": 22,
                "stdout_sha256": hashlib.sha256(enum_out).hexdigest(),
            }
        },
        "verify-4": {
            "stdout_sha256": hashlib.sha256(_cli(child.cli_argv("verify-4", 1))).hexdigest()
        },
        "suites-4": {
            "algebras": [
                child.multiset_digest(child.statuses(r))
                for r in run_catalog_suites(algs, child.algebra_suites())
            ]
        },
    }
    tables = json.dumps([[list(r) for r in a.imp] for a in algs]).encode()
    cwd = os.getcwd()
    os.chdir(ROOT)
    yield goldens, tables
    os.chdir(cwd)


def _deadline():
    return run.time.perf_counter() + 120


@pytest.mark.parametrize("workload", SMALL)
def test_smoke_timed_run(small, workload):
    goldens, tables = small
    sample = run.invoke(workload, tables, goldens, _deadline())
    assert sample.problems == []
    assert sample.failed == 0
    assert sample.attempted == (6 if workload == "suites-4" else 1)
    assert 0 < sample.first_s <= sample.wall
    assert sample.cpu > 0 and sample.rss_mb > 0


@pytest.mark.parametrize("workload", SMALL)
def test_smoke_traced_run(small, workload):
    goldens, tables = small
    metrics, attempted, failed, problems, _ = run.traced(workload, tables, goldens, _deadline())
    assert (failed, problems) == (0, [])
    assert set(metrics) == set(layers.UNITS)
    assert metrics["trace.overhead"] > 0
    if workload == "suites-4":
        assert attempted == 6 + 1 + 6  # pool run, untraced reference, traced run
        assert metrics["filters.all_filters.calls_per_algebra"] >= 1
        assert 0 < metrics["suites.pool.efficiency"] <= 1.05
    else:
        assert attempted == 3  # untraced, traced, untraced
    if workload == "enumerate-4":
        assert metrics["enumeration.search.tables"] == 22
        assert metrics["enumeration.canonical.calls"] == 22
        assert metrics["enumeration.canonical.useful_ratio"] == 6 / 22
        assert metrics["filters.all_filters.calls_per_algebra"] == 1
    if workload == "verify-4":
        assert metrics["enumeration.survey.pairs"] == 6 * 7 // 2
        assert metrics["cli.self_s"] > 0


def test_injected_digest_mismatch_counts_as_a_failed_operation(small):
    goldens, tables = small
    bad = json.loads(json.dumps(goldens))
    bad["verify-4"]["stdout_sha256"] = "0" * 64
    bad["suites-4"]["algebras"][2] = "0" * 64

    sample = run.invoke("verify-4", tables, bad, _deadline())
    assert (sample.attempted, sample.failed) == (1, 1)
    assert run.end_to_end([sample], 0.1)["success_rate"] == 0.0

    sample = run.invoke("suites-4", tables, bad, _deadline())
    assert (sample.attempted, sample.failed) == (6, 1)
    assert "algebra 2" in sample.problems[0]
    assert run.end_to_end([sample], 0.1)["success_rate"] == 5 / 6


def test_without_a_checkout_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path, capsys):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        rc = run.main(["--workload", "verify-5", "--seed", "1", "--seconds", "1", "--trace", "0"])
    finally:
        os.chdir(cwd)
    assert rc != 0
    assert capsys.readouterr().out == ""
