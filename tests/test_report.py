from hilbertalg import ReportBuilder
from hilbertalg.report import fmt, fset

from _oracles import mask


def test_builder_statuses_and_counts():
    b = ReportBuilder("demo")
    b.check("first", [], detail="note")
    b.check("second", [])
    b.check("third", ["x=1 y=2", "x=3 y=4"])
    b.skip("fourth", "not applicable")
    report = b.done()
    assert not report.ok
    assert report.counts() == (2, 1, 1)
    lines = report.lines()
    assert lines[0] == "[PASS] first (note)"
    assert lines[2].startswith("[FAIL] third witness=x=1 y=2")
    assert "2 failing instance(s)" in lines[2]
    assert lines[3] == "[SKIP] fourth (not applicable)"


def test_dict_rendering_and_timing_opt_in():
    b = ReportBuilder("demo")
    b.check("only", [])
    report = b.done()
    plain = report.as_dict()
    assert plain == {
        "suite": "demo",
        "ok": True,
        "checks": [{"name": "only", "status": "pass"}],
    }
    timed = report.as_dict(include_timing=True)
    assert "elapsed" in timed["checks"][0]
    assert report.lines(include_timing=True)[0].endswith("s")


def test_witness_formatting_is_deterministic():
    assert fmt(b=2, a=1) == "a=1 b=2"
    assert fset(mask({3, 1, 2})) == "{1,2,3}"
    assert fset(mask([])) == "{}"
