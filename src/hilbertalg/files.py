"""Algebra files and DOT export.

The native format is a JSON object {"size", "one", "table", "labels"?} with
table[i][j] the index of i -> j.  A plain-text alternative for hand
authoring is also accepted: optional '#' comment lines, then a line with
"n one", then n whitespace-separated rows.
"""

from __future__ import annotations

import json

from .lattice import cover_pairs


class ParseError(ValueError):
    pass


def parse_algebra_text(text):
    """(table, one, labels) from either format; labels may be None."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_plain(text)


def _parse_json(text):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        # deep nesting exhausts the decoder's recursion limit
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("size", "one", "table"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    n, one, table = doc["size"], doc["one"], doc["table"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("size must be a positive integer")
    if not isinstance(table, list) or len(table) != n:
        raise ParseError(f"table must be a list of {n} rows")
    for row in table:
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"each table row must have {n} entries")
    labels = doc.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != n
            or any(not isinstance(s, str) for s in labels)
        ):
            raise ParseError(f"labels must be {n} strings")
        if len(set(labels)) != n:
            raise ParseError("labels must be unique")
    return table, one, labels


def _parse_plain(text):
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise ParseError("empty input")
    head = rows.pop(0)
    if len(head) != 2:
        raise ParseError("first line must be: <size> <unit-index>")
    try:
        n, one = int(head[0]), int(head[1])
        table = [[int(v) for v in row] for row in rows]
    except ValueError as e:
        raise ParseError(f"non-integer entry: {e}") from None
    if len(table) != n or any(len(row) != n for row in table):
        raise ParseError(f"expected {n} rows of {n} entries")
    return table, one, None


def load_algebra_file(path):
    """(table, one, labels) from a file path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    return parse_algebra_text(text)


def dump_algebra(alg, labels=None):
    doc = {"size": alg.n, "one": alg.one, "table": [list(row) for row in alg.imp]}
    if labels is not None:
        doc["labels"] = list(labels)
    return json.dumps(doc, indent=2) + "\n"


def default_labels(n):
    return [f"x{i}" for i in range(n)]


def dot_digraph(name, node_labels, edges):
    """DOT source for a covering digraph; node and edge order is stable."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, label in enumerate(node_labels):
        quoted = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{quoted}"];')
    for a, b in sorted(edges):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_of_order(name, leq, node_labels):
    """DOT of the covering relation of a partial order."""
    return dot_digraph(name, node_labels, cover_pairs(leq))
