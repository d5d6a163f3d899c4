"""Byte-identity of CLI output against committed goldens.

Each case runs the CLI in-process and compares stdout byte for byte with a
file under tests/golden/.  A refactor that changes any report, however
consistently across job counts, fails here.  Rewrite the goldens (only for a
deliberate output change) with:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import os
import sys
import tempfile

import pytest

from hilbertalg import validate_hilbert
from hilbertalg.cli import main
from hilbertalg.files import dump_algebra

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# same tables and labels as the godel3/tarski3 fixtures of test_cli.py
FIXTURES = {
    "godel3": ([[2, 2, 2], [0, 2, 2], [0, 1, 2]], ["0", "a", "1"]),
    "tarski3": ([[2, 1, 2], [0, 2, 2], [0, 1, 2]], ["a", "b", "1"]),
}

ANALYZE_FLAGS = ["--filters", "--multipliers", "--ce", "--adjoint", "--extension"]


def cases():
    """(golden file name, argv with {godel3}/{tarski3} placeholders)."""
    out = [
        ("verify-enumerate-4.txt", ["verify", "--enumerate", "4", "--suite", "all"]),
        ("verify-enumerate-4.json", ["verify", "--enumerate", "4", "--suite", "all", "--json"]),
        ("verify-enumerate-5.txt", ["verify", "--enumerate", "5", "--suite", "all"]),
        ("verify-enumerate-6.txt", ["verify", "--enumerate", "6", "--suite", "all"]),
        ("enumerate-5.txt", ["enumerate", "5"]),
        ("enumerate-6.txt", ["enumerate", "6"]),
    ]
    for name in FIXTURES:
        out.append((f"analyze-{name}.json", ["analyze", "{%s}" % name] + ANALYZE_FLAGS + ["--json"]))
        out.append((f"analyze-{name}.txt", ["analyze", "{%s}" % name] + ANALYZE_FLAGS))
        for kind in ("hasse", "ce", "filters"):
            out.append((f"export-{name}-{kind}.dot", ["export", "{%s}" % name, "--dot", kind]))
    return out


def write_fixtures(directory):
    paths = {}
    for name, (table, labels) in FIXTURES.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_algebra(validate_hilbert(table, len(table) - 1), labels=labels))
        paths[name] = path
    return paths


def run_cli(argv, paths):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([a.format(**paths) for a in argv])
    assert code == 0, f"{argv} exited {code}"
    return buf.getvalue()


@pytest.mark.parametrize("golden,argv", cases(), ids=[c[0] for c in cases()])
def test_cli_output_matches_golden(golden, argv, tmp_path):
    out = run_cli(argv, write_fixtures(str(tmp_path)))
    with open(os.path.join(GOLDEN_DIR, golden), encoding="utf-8", newline="") as fh:
        assert out == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_fixtures(tmp)
        for golden, argv in cases():
            with open(os.path.join(GOLDEN_DIR, golden), "w", encoding="utf-8", newline="") as fh:
                fh.write(run_cli(argv, paths))
    sys.exit(0)
