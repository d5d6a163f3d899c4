import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import hilbertalg
from hilbertalg import canonical_table, cli, enumeration, suites, validate_hilbert
from hilbertalg.cli import main
from hilbertalg.files import dump_algebra, load_algebra_file


@pytest.fixture()
def godel3_file(tmp_path, godel3):
    path = tmp_path / "godel3.json"
    path.write_text(dump_algebra(godel3, labels=["0", "a", "1"]))
    return str(path)


@pytest.fixture()
def tarski3_file(tmp_path, tarski3):
    path = tmp_path / "tarski3.json"
    path.write_text(dump_algebra(tarski3, labels=["a", "b", "1"]))
    return str(path)


def test_validate_ok(godel3_file, capsys):
    assert main(["validate", godel3_file]) == 0
    assert "valid Hilbert algebra" in capsys.readouterr().out


def test_validate_axiom_failure(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("3 2\n2 2 2\n1 2 2\n0 1 2\n")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "exchange: (x1, x1, x0)" in out


def test_validate_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"size": 2, "one": 1, "table": [[9, 1], [0, 1]]}')
    assert main(["validate", str(path)]) == 2
    path.write_text("not json at all {{{")
    assert main(["validate", str(path)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_analyze_fixture(tarski3_file, capsys):
    assert main(["analyze", tarski3_file, "--ce", "--filters"]) == 0
    out = capsys.readouterr().out
    assert "closure endomorphisms (4)" in out
    assert "filters (4)" in out
    assert "monomial=True" in out


def test_analyze_json(godel3_file, capsys):
    assert main(["analyze", godel3_file, "--filters", "--multipliers",
                 "--adjoint", "--extension", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["filters"]) == 3
    assert len(doc["multipliers"]) == 4
    assert sum(m["isotone"] for m in doc["multipliers"]) == 3
    assert len(doc["extension"]["filters"]) == 3


def test_analyze_singleton_all_flags(tmp_path, singleton, capsys):
    path = tmp_path / "one.json"
    path.write_text(dump_algebra(singleton))
    assert main(["analyze", str(path), "--filters", "--multipliers", "--ce",
                 "--adjoint", "--extension"]) == 0
    out = capsys.readouterr().out
    assert "filters (1)" in out and "closure endomorphisms (1)" in out


def test_export_dot(godel3_file, tarski3_file, capsys, tmp_path):
    assert main(["export", godel3_file, "--dot", "hasse"]) == 0
    out = capsys.readouterr().out
    assert out.count("->") == 2
    assert main(["export", tarski3_file, "--dot", "ce"]) == 0
    out = capsys.readouterr().out
    assert out.count("->") == 4  # diamond
    target = tmp_path / "out.dot"
    assert main(["export", godel3_file, "--dot", "filters", "--out", str(target)]) == 0
    assert target.read_text().count("->") == 2


def test_unwritable_export_path_is_an_input_error(godel3_file, tmp_path, capsys):
    target = tmp_path / "missing" / "out.dot"
    assert main(["export", godel3_file, "--dot", "hasse", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: cannot write {target}: No such file or directory\n"


def test_enumerate_into_a_file_is_an_input_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["enumerate", "3", "--out-dir", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: cannot write {taken}: File exists\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_names_the_path(godel3_file, tmp_path, capsys):
    assert main(["export", godel3_file, "--dot", "ce", "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err == "input error: cannot write /dev/full: No space left on device\n"
    full = tmp_path / "out" / "algebra_3_000.json"
    full.parent.mkdir()
    full.symlink_to("/dev/full")
    assert main(["enumerate", "3", "--out-dir", str(full.parent)]) == 2
    assert capsys.readouterr().err == f"input error: cannot write {full}: No space left on device\n"


def test_verify_single_file(godel3_file, capsys):
    assert main(["verify", godel3_file, "--suite", "kernel-embedding"]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    assert "[FAIL]" not in out


def test_verify_file_builds_no_survey_record(godel3_file, monkeypatch, capsys):
    built = []
    monkeypatch.setattr(suites, "survey_record", built.append)
    monkeypatch.setattr(enumeration, "endomorphism_monoid", built.append)
    assert main(["verify", godel3_file, "--suite", "all"]) == 0
    assert "[SKIP] cross-survey (needs --enumerate)" in capsys.readouterr().out
    assert built == []


def test_verify_unknown_suite(godel3_file, capsys):
    assert main(["verify", godel3_file, "--suite", "nope"]) == 2


def test_verify_enumerate_three(capsys):
    assert main(["verify", "--enumerate", "3", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert "enumerated 2 algebra(s) of size 3" in out
    assert "RESULT: PASS" in out


def test_verify_enumerate_one_trivial(capsys):
    assert main(["verify", "--enumerate", "1"]) == 0
    assert "RESULT: PASS" in capsys.readouterr().out


def test_verify_json_mode(capsys):
    assert main(["verify", "--enumerate", "2", "--suite", "all", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["counts"]["fail"] == 0
    assert len(doc["algebras"]) == 1
    assert doc["cross_survey"]["ok"] is True


def test_verify_implication_only_suites_skip(godel3_file, capsys):
    assert main(["verify", godel3_file, "--suite", "implication-extras"]) == 0
    out = capsys.readouterr().out
    assert "[SKIP] precondition (applies to implication algebras only)" in out


def test_enumerate_summary(capsys):
    assert main(["enumerate", "3"]) == 0
    out = capsys.readouterr().out
    assert "2 algebra(s) up to isomorphism" in out
    assert "3 raw table(s)" in out


def test_enumerate_bound(capsys):
    assert main(["enumerate", "7"]) == 2
    # the bound is fixed: an option that would move it is rejected by the parser
    for argv in (["enumerate", "5", "--bound", "4"], ["enumerate", "3", "--bound", "3"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_enumerate_far_beyond_the_bound_is_an_input_error(capsys):
    for argv in (["enumerate", "18"], ["verify", "--enumerate", "18"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: size 18 exceeds the search bound 6")
        assert "more than" in captured.err and "Traceback" not in captured.err


def test_enumerate_export_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "catalog"
    assert main(["enumerate", "3", "--out-dir", str(out_dir)]) == 0
    files = sorted(out_dir.glob("algebra_3_*.json"))
    assert len(files) == 2
    assert (out_dir / "summary_3.txt").exists()
    for path in files:
        table, one, _ = load_algebra_file(str(path))
        alg = validate_hilbert(table, one)
        assert canonical_table(alg.imp, alg.one) == alg.imp  # exports re-canonicalize to themselves


@pytest.mark.parametrize("size", [3, 5])
def test_enumerate_summary_file_is_the_stdout_report(tmp_path, capsys, size):
    assert main(["enumerate", str(size)]) == 0
    stdout = capsys.readouterr().out
    assert main(["enumerate", str(size), "--out-dir", str(tmp_path)]) == 0
    classes = len(stdout.splitlines()) - 1  # one line per class after the summary
    assert capsys.readouterr().out == f"wrote {classes} algebra file(s) to {tmp_path}\n"
    with open(tmp_path / f"summary_{size}.txt", encoding="utf-8", newline="") as fh:
        assert fh.read() == stdout


def printed_before_each_call(monkeypatch, module, name, argv):
    """The stdout of ``main(argv)`` as it stood at each call of ``module.name``."""
    buf, seen = io.StringIO(), []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        seen.append(buf.getvalue())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return seen


def test_verify_prints_each_block_before_the_next_algebra_runs(monkeypatch):
    argv = ["verify", "--enumerate", "4", "--suite", "all", "--jobs", "1"]
    seen = printed_before_each_call(monkeypatch, suites, "_worker", argv)
    assert seen[0] == "enumerated 6 algebra(s) of size 4\n"
    assert [out.count("\n== algebra") for out in seen] == list(range(6))
    assert not any("cross-survey" in out for out in seen)


def test_verify_at_two_jobs_prints_the_first_block_before_the_pool_starts(monkeypatch):
    argv = ["verify", "--enumerate", "4", "--suite", "all", "--jobs", "2"]
    seen = printed_before_each_call(monkeypatch, os, "fork", argv)
    assert len(seen) == 2  # two workers, for the five algebras after the first
    for out in seen:
        assert out.startswith("enumerated 6 algebra(s) of size 4\n== algebra")
        assert out.count("\n== algebra") == 1
    assert not any("cross-survey" in out for out in seen)


def test_enumerate_prints_each_class_line_before_the_next_entry_is_built(monkeypatch):
    seen = printed_before_each_call(monkeypatch, cli, "catalog_entry", ["enumerate", "5"])
    assert seen[0].startswith("size 5: 21 algebra(s)") and seen[0].count("\n") == 1
    assert [out.count("\n[") for out in seen] == list(range(21))


def test_verify_deterministic_output(capsys):
    assert main(["verify", "--enumerate", "3", "--suite", "all", "--jobs", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--enumerate", "3", "--suite", "all", "--jobs", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_timings_are_opt_in(godel3_file, capsys):
    assert main(["verify", godel3_file, "--suite", "join-density"]) == 0
    plain = capsys.readouterr().out
    assert not any(line.rstrip().endswith("s") and "[" in line for line in plain.splitlines() if "PASS" in line)
    assert main(["verify", godel3_file, "--suite", "join-density", "--timings"]) == 0
    timed = capsys.readouterr().out
    assert any(line.rstrip().endswith("s") for line in timed.splitlines() if "[PASS]" in line)
    assert main(["verify", godel3_file, "--suite", "join-density", "--json", "--timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "elapsed" in doc["algebras"][0]["suites"][0]["checks"][0]


def test_export_dot_escapes_labels(tmp_path, godel3, capsys):
    path = tmp_path / "quoted.json"
    path.write_text(dump_algebra(godel3, labels=['a"b', "c\\d", "1"]))
    assert main(["export", str(path), "--dot", "hasse"]) == 0
    out = capsys.readouterr().out
    assert 'n0 [label="a\\"b"];' in out
    assert 'n1 [label="c\\\\d"];' in out
    assert main(["export", str(path), "--dot", "filters"]) == 0
    assert '[label="{a\\"b,c\\\\d,1}"];' in capsys.readouterr().out


def test_boolean_size_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"size": true, "one": 0, "table": [[0]]}')
    assert main(["validate", str(path)]) == 2
    assert "size must be a positive integer" in capsys.readouterr().err


def test_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00garbage")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"input error: cannot read {path}:" in err and "Traceback" not in err


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"size": 1, "one": 0, "table": ' + "[" * 200_000 + "}")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error: invalid JSON:" in err and "Traceback" not in err


def test_verify_file_and_enumerate_is_an_input_error(godel3_file, capsys):
    assert main(["verify", godel3_file, "--enumerate", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "input error" in captured.err
    assert main(["verify"]) == 2


def test_verify_refuses_jobs_below_one(godel3_file, capsys):
    for jobs in ("0", "-3"):
        assert main(["verify", godel3_file, "--jobs", jobs]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err


def test_input_and_axiom_errors_share_one_exit_path(tmp_path, capsys):
    broken = tmp_path / "broken.txt"
    broken.write_text("3 2\n2 2 2\n1 2 2\n0 1 2\n")
    malformed = tmp_path / "bad.json"
    malformed.write_text('{"size": 2, "one": 1, "table": [[9, 1], [0, 1]]}')
    for argv in (["analyze"], ["verify"], ["export", "--dot", "hasse"]):
        assert main(argv[:1] + [str(broken)] + argv[1:]) == 1
        assert "not a Hilbert algebra" in capsys.readouterr().err
        assert main(argv[:1] + [str(malformed)] + argv[1:]) == 2
        assert "input error" in capsys.readouterr().err


def test_the_jobs_variable_no_longer_changes_verify(monkeypatch, capsys):
    # --jobs, default 1, is the only setting of the worker count: with the
    # variable set, verify still checks every algebra itself and forks nothing
    argv = ["verify", "--enumerate", "3", "--suite", "ce-structure"]
    assert main(argv) == 0
    expected = capsys.readouterr()

    def no_fork():
        raise AssertionError("verify forked a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    for value in ("0", "abc", "2"):
        monkeypatch.setenv("HILBERTALG_JOBS", value)
        assert main(argv) == 0
        assert capsys.readouterr() == expected


def test_closed_stdout_exits_without_traceback():
    src = os.path.dirname(os.path.dirname(hilbertalg.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hilbertalg", "verify", "--enumerate", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_closing_stdout_early_stops_verify_and_its_workers(tmp_path):
    src = os.path.dirname(os.path.dirname(hilbertalg.__file__))
    with open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "hilbertalg", "verify", "--enumerate", "6", "--jobs", "2"],
            stdout=subprocess.PIPE,
            stderr=err,
            env=dict(os.environ, PYTHONPATH=src),
            start_new_session=True,  # the workers share its process group
        )
        try:
            head = [proc.stdout.readline() for _ in range(2)]  # as ``| head -2`` reads
            proc.stdout.close()
            assert proc.wait(timeout=120) == 1
            deadline = time.monotonic() + 10
            while True:  # until no process of the group is left
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a worker outlived verify"
                time.sleep(0.05)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        err.seek(0)
        assert err.read() == b""
    assert head[0] == b"enumerated 95 algebra(s) of size 6\n"
    assert head[1].startswith(b"== algebra n=6 ")
