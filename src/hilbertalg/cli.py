"""Command-line interface.

Exit codes: 0 success, 1 semantic failure (axiom or theorem check), 2 input
error (unreadable, unparsable or structurally malformed files, bad options).
A reader that closes stdout early ends the command quietly with code 1.
The text output of ``verify`` and ``enumerate`` streams: each algebra's
block is flushed as soon as it is computed, in catalog order.
Reports are rendered deterministically: repeated runs and runs with
different --jobs values produce byte-identical output (timings are shown
only on request).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing

from .closure import is_isotone
from .core import (
    FiniteHilbertAlgebra,
    HilbertAxiomError,
    MalformedTableError,
    axiom_violations,
    classify,
)
from .enumeration import (
    EnumerationBound,
    catalog_entry,
    classes,
    cross_survey_report,
)
from .files import (
    ParseError,
    default_labels,
    dot_of_order,
    dump_algebra,
    load_algebra_file,
)
from .lattice import bits, cover_pairs
from .structures import Structures
from .suites import CROSS_SUITE, iter_catalog, resolve_suites, suite_names

OK, SEMANTIC_FAIL, INPUT_ERROR = 0, 1, 2


class CommandError(Exception):
    """Ends a command: main prints the message to stderr and returns the code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _read(path):
    """(table, one, labels, axiom violations); unusable input ends the command."""
    try:
        table, one, labels = load_algebra_file(path)
        bad = axiom_violations(table, one)  # raises MalformedTableError on bad shape
    except (ParseError, MalformedTableError) as e:
        raise CommandError(INPUT_ERROR, f"input error: {e}") from None
    if labels is None:
        labels = default_labels(len(table))
    return table, one, labels, bad


def _load(path):
    """(algebra, labels); a table that fails the axioms ends the command."""
    table, one, labels, bad = _read(path)
    if bad:
        raise CommandError(SEMANTIC_FAIL, str(HilbertAxiomError(bad)))
    return FiniteHilbertAlgebra(table, one), labels


def _fset(members, labels):
    return "{" + ",".join(labels[i] for i in bits(members)) + "}"


def _fmap(f, labels):
    return "(" + ",".join(labels[v] for v in f) + ")"


def cmd_validate(args):
    table, one, labels, bad = _read(args.path)
    if bad:
        for v in bad:
            print(v.render(labels))
        return SEMANTIC_FAIL
    print(f"valid Hilbert algebra: n={len(table)} one={labels[one]}")
    return OK


def _analyze_payload(alg, labels, args):
    ctx = Structures(alg)
    flags = ctx.flags
    out = {
        "size": alg.n,
        "one": labels[alg.one],
        "implication_algebra": flags.implication_algebra,
        "implicative_semilattice": flags.implicative_semilattice,
    }
    if args.filters:
        fl, monomials = ctx.filters, set(ctx.monomials)
        out["filters"] = [
            {"members": _fset(j, labels), "monomial": j in monomials}
            for j in fl.carrier
        ]
        out["filter_lattice_covers"] = _cover_list(fl.lattice.leq)
    if args.multipliers:
        out["multipliers"] = [
            {"map": _fmap(f, labels), "isotone": is_isotone(alg, f)}
            for f in ctx.multipliers.carrier
        ]
    if args.ce:
        ce = ctx.ce
        out["closure_endomorphisms"] = [
            {
                "map": _fmap(f, labels),
                "kernel": _fset(k, labels),
                "fixpoints": _fset(r, labels),
            }
            for f, k, r in zip(ce.carrier, ce.kernels, ce.fixes)
        ]
        out["ce_lattice_covers"] = _cover_list(ce.lattice.leq)
    if args.adjoint:
        adj = ctx.adjoint
        out["adjoint"] = {
            "maps": [_fmap(f, labels) for f in adj.carrier],
            "join": [list(r) for r in adj.lattice.join_table],
            "subtraction": [list(r) for r in adj.lattice.residual_table],
        }
    if args.extension:
        # the filter lattice under reverse inclusion: meet is its join, i -> j its residual at [j][i]
        ext = ctx.extension
        out["extension"] = {
            "filters": [_fset(j, labels) for j in ext.carrier],
            "unit": ext.index(1 << alg.one),
            "meet": [list(r) for r in ext.lattice.join_table],
            "implication": [list(r) for r in zip(*ext.lattice.residual_table)],
            "embedding": list(ext.principal),
        }
    return out


def _cover_list(leq):
    return [list(pair) for pair in cover_pairs(leq)]


def _print_analysis(payload):
    print(f"size: {payload['size']}  one: {payload['one']}")
    print(f"implication algebra: {payload['implication_algebra']}")
    print(f"implicative semilattice: {payload['implicative_semilattice']}")
    if "filters" in payload:
        print(f"filters ({len(payload['filters'])}):")
        for row in payload["filters"]:
            print(f"  {row['members']} monomial={row['monomial']}")
    if "multipliers" in payload:
        print(f"multipliers ({len(payload['multipliers'])}):")
        for row in payload["multipliers"]:
            print(f"  {row['map']} isotone={row['isotone']}")
    if "closure_endomorphisms" in payload:
        print(f"closure endomorphisms ({len(payload['closure_endomorphisms'])}):")
        for row in payload["closure_endomorphisms"]:
            print(f"  {row['map']} kernel={row['kernel']} fixpoints={row['fixpoints']}")
    if "adjoint" in payload:
        print(f"adjoint semilattice ({len(payload['adjoint']['maps'])} elements):")
        for i, m in enumerate(payload["adjoint"]["maps"]):
            print(f"  [{i}] {m}")
        print(f"  join: {payload['adjoint']['join']}")
        print(f"  subtraction: {payload['adjoint']['subtraction']}")
    if "extension" in payload:
        ext = payload["extension"]
        print(f"minimal Brouwerian extension ({len(ext['filters'])} elements, reverse inclusion):")
        for i, m in enumerate(ext["filters"]):
            print(f"  [{i}] {m}")
        print(f"  unit: [{ext['unit']}]  embedding: {ext['embedding']}")
        print(f"  meet: {ext['meet']}")
        print(f"  implication: {ext['implication']}")


def cmd_analyze(args):
    alg, labels = _load(args.path)
    payload = _analyze_payload(alg, labels, args)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_analysis(payload)
    return OK


def _table_json(alg):
    return json.dumps([list(r) for r in alg.imp], separators=(",", ":"))


def _input_error(message):
    return CommandError(INPUT_ERROR, f"input error: {message}")


def _classes(size):
    try:
        return classes(size)
    except (ValueError, EnumerationBound) as e:
        raise _input_error(e) from None


def cmd_verify(args):
    try:
        names = resolve_suites(args.suite or ["all"])
    except ValueError as e:
        raise _input_error(e) from None
    jobs = args.jobs
    if jobs < 1:
        raise _input_error(f"--jobs must be at least 1, got {jobs}")
    if (args.path is None) == (args.enumerate is None):
        raise _input_error("give exactly one of an algebra file and --enumerate N")

    if args.enumerate is not None:
        algebras, _raw = _classes(args.enumerate)
        header = f"enumerated {len(algebras)} algebra(s) of size {args.enumerate}"
    else:
        alg, _labels = _load(args.path)
        algebras = [alg]
        header = f"verifying {args.path}"

    # text leaves block by block, as each algebra's reports arrive in catalog
    # order; --json is one document, printed once everything is done
    if not args.json:
        print(header)
    survey = CROSS_SUITE in names and args.enumerate is not None
    records, tally = [], []  # tally: (pass, fail, skip) of every report
    doc = {"header": header, "algebras": [], "cross_survey": None}
    with closing(iter_catalog(algebras, names, jobs=jobs, survey=survey)) as results:
        for alg, (reports, record) in zip(algebras, results):
            records.append(record)
            tally += [r.counts() for r in reports]
            if args.json:
                doc["algebras"].append({
                    "n": alg.n,
                    "one": alg.one,
                    "table": [list(row) for row in alg.imp],
                    "suites": [r.as_dict(include_timing=args.timings) for r in reports],
                })
            else:
                print(f"== algebra n={alg.n} one={alg.one} table={_table_json(alg)}")
                for r in reports:
                    print(f"-- {r.name}")
                    for line in r.lines(include_timing=args.timings):
                        print(f"   {line}")
                sys.stdout.flush()

    cross = cross_survey_report(algebras, records) if survey else None
    if cross is not None:
        doc["cross_survey"] = cross.as_dict(include_timing=args.timings)
        tally.append(cross.counts())
    elif CROSS_SUITE in names:
        doc["cross_survey"] = {"skipped": "cross-survey needs --enumerate"}
        tally.append((0, 0, 1))
    npass, nfail, nskip = (sum(column) for column in zip((0, 0, 0), *tally))
    doc["ok"] = nfail == 0
    doc["counts"] = {"pass": npass, "fail": nfail, "skip": nskip}

    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        if cross is not None:
            print(f"== {CROSS_SUITE}")
            for line in cross.lines(include_timing=args.timings):
                print(f"   {line}")
        elif CROSS_SUITE in names:
            print(f"== {CROSS_SUITE}")
            print("   [SKIP] cross-survey (needs --enumerate)")
        verdict = "PASS" if nfail == 0 else "FAIL"
        print(f"RESULT: {verdict} ({npass} passed, {nfail} failed, {nskip} skipped)")
    return OK if nfail == 0 else SEMANTIC_FAIL


def cmd_export(args):
    alg, labels = _load(args.path)
    if args.dot == "hasse":
        text = dot_of_order("hasse", alg.leq, labels)
    elif args.dot == "filters":
        fl = Structures(alg).filters
        text = dot_of_order("filters", fl.lattice.leq, [_fset(j, labels) for j in fl.carrier])
    else:
        ce = Structures(alg).ce
        text = dot_of_order("ce", ce.lattice.leq, [_fmap(f, labels) for f in ce.carrier])
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:  # e.filename is None when the write or close fails
            raise _input_error(f"cannot write {args.out}: {e.strerror}") from None
    else:
        sys.stdout.write(text)
    return OK


def _catalog_lines(size, algebras, raw):
    """The summary line, then each class's line as its catalog entry is built."""
    flags = [classify(alg) for alg in algebras]
    n_impl = sum(f.implication_algebra for f in flags)
    n_semi = sum(f.implicative_semilattice for f in flags)
    yield (
        f"size {size}: {len(algebras)} algebra(s) up to isomorphism, "
        f"{raw} raw table(s), {n_impl} implication algebra(s), "
        f"{n_semi} implicative semilattice(s)"
    )
    for i, e in enumerate(map(catalog_entry, algebras)):
        yield (
            f"[{i}] filters={e.filter_count} multipliers={e.multiplier_count} "
            f"ce={e.ce_count} implication={e.implication_algebra} "
            f"semilattice={e.implicative_semilattice} table={_table_json(e.algebra)}"
        )


def cmd_enumerate(args):
    algebras, raw = _classes(args.size)
    lines = _catalog_lines(args.size, algebras, raw)
    if not args.out_dir:
        for line in lines:
            print(line, flush=True)
        return OK
    # every line before any file: an entry that fails its re-check leaves no partial export
    summary = "".join(line + "\n" for line in lines)
    path = args.out_dir
    try:
        os.makedirs(path, exist_ok=True)
        for i, alg in enumerate(algebras):
            path = os.path.join(args.out_dir, f"algebra_{args.size}_{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dump_algebra(alg))
        path = os.path.join(args.out_dir, f"summary_{args.size}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(summary)
    except OSError as e:  # e.filename is None when the write or close fails
        raise _input_error(f"cannot write {path}: {e.strerror}") from None
    print(f"wrote {len(algebras)} algebra file(s) to {args.out_dir}")
    return OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hilbertalg",
        description="Finite Hilbert algebra toolkit: validation, analysis, "
        "theorem verification, enumeration and export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a table against the axioms")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="compute structures of one algebra")
    p.add_argument("path")
    p.add_argument("--filters", action="store_true")
    p.add_argument("--multipliers", action="store_true")
    p.add_argument("--ce", action="store_true")
    p.add_argument("--adjoint", action="store_true")
    p.add_argument("--extension", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("path", nargs="?")
    p.add_argument("--enumerate", type=int, metavar="N")
    p.add_argument("--suite", action="append", metavar="NAME",
                   help=f"all or one of: {', '.join(suite_names())}")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the algebras after the first, which verify "
                        "checks itself; without os.fork (Windows), verify checks every "
                        "algebra itself (default: 1)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="export a lattice as a DOT digraph")
    p.add_argument("path")
    p.add_argument("--dot", choices=["hasse", "ce", "filters"], required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("enumerate", help="enumerate all algebras of a size")
    p.add_argument("size", type=int)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CommandError as e:
        print(e, file=sys.stderr)
        return e.code
    except BrokenPipeError:
        # the reader closed stdout early (``| head``); keep the final flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return SEMANTIC_FAIL


if __name__ == "__main__":
    sys.exit(main())
