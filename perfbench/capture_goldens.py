"""Write ``goldens.json`` and ``catalog6.json`` from the checkout's current code.

    python3 perfbench/capture_goldens.py

Run from the root of a checkout.  The goldens are the outputs every benchmark
run is checked against, so they are captured once from a trusted commit and
re-captured only by a change that means to alter those outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import child  # noqa: E402
import run  # noqa: E402


def cli_stdout(args):
    res = subprocess.run(
        [sys.executable, "-m", "hilbertalg", *args],
        capture_output=True,
        env=run.child_env(),
        check=True,
    )
    return res.stdout


def main():
    from hilbertalg.enumeration import enumerate_algebras
    from hilbertalg.suites import run_catalog_suites

    goldens = {"enumerate": {}}
    for n in range(1, 7):
        out = cli_stdout(["enumerate", str(n)])
        m = re.match(rb"size \d+: (\d+) algebra\(s\) up to isomorphism, (\d+) raw table", out)
        goldens["enumerate"][str(n)] = {
            "classes": int(m[1]),
            "raw": int(m[2]),
            "stdout_sha256": hashlib.sha256(out).hexdigest(),
        }

    serial = cli_stdout(child.cli_argv("verify-5", 1))
    pooled = cli_stdout(child.cli_argv("verify-5", child.POOL_JOBS))
    if serial != pooled:
        raise SystemExit("verify-5 output depends on --jobs; refusing to capture")
    goldens["verify-5"] = {"stdout_sha256": hashlib.sha256(pooled).hexdigest()}

    algs = enumerate_algebras(6).algebras()
    catalog = json.dumps([[list(r) for r in a.imp] for a in algs], separators=(",", ":"))
    with open(child.CATALOG, "w", encoding="utf-8") as fh:
        fh.write(catalog + "\n")
    with open(child.CATALOG, "rb") as fh:
        catalog_sha = hashlib.sha256(fh.read()).hexdigest()
    results = run_catalog_suites(algs, child.algebra_suites(), jobs=child.POOL_JOBS)
    goldens["suites-6"] = {
        "catalog_sha256": catalog_sha,
        "algebras": [child.multiset_digest(child.statuses(r)) for r in results],
    }

    with open(child.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
