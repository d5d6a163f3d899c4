"""Spans recorded from outside the program, around calls into each layer.

``Tracer`` keeps a stack of open spans.  When a span closes, its duration is
charged to its parent, so a span's self (busy) time is its duration minus the
time covered by its direct children.  Spans of one traced run all live in one
thread of one process, so children never overlap and the sum of their
durations is the covered part of the parent.

Most traced functions are called hundreds of thousands of times, so spans are
aggregated per name as they close (call count, busy time).  Only
names listed in ``KEEP`` also keep each span's duration, for percentiles.

``install`` wraps the traced functions of ``hilbertalg`` by rebinding every
module attribute (and class attribute) that refers to the original object, so
calls through ``from .core import partial_meet`` style imports are traced too.
It returns a function that puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name): plain functions whose calls become spans
FUNCTIONS = [
    ("hilbertalg.cli", "main", "cli"),
    ("hilbertalg.enumeration", "enumerate_algebras", "enumeration.enumerate"),
    ("hilbertalg.enumeration", "canonical_table", "enumeration.canonical"),
    ("hilbertalg.enumeration", "catalog_entry", "enumeration.catalog_entry"),
    ("hilbertalg.enumeration", "cross_survey_report", "enumeration.survey"),
    ("hilbertalg.enumeration", "endomorphism_monoid", "enumeration.monoid"),
    ("hilbertalg.enumeration", "monoid_isomorphism", "enumeration.monoid_iso"),
    ("hilbertalg.enumeration", "_monoid_colors", "enumeration.monoid_colors"),
    ("hilbertalg.enumeration", "are_isomorphic", "enumeration.are_isomorphic"),
    ("hilbertalg.core", "partial_meet", "core.partial_meet"),
    ("hilbertalg.core", "axiom_violations", "core.axiom_violations"),
    ("hilbertalg.core", "classify", "core.classify"),
    ("hilbertalg.filters", "all_filters", "filters.all_filters"),
    ("hilbertalg.multipliers", "all_multipliers", "multipliers.all_multipliers"),
    ("hilbertalg.closure", "all_closure_endos", "closure.all_closure_endos"),
    ("hilbertalg.closure", "search_endomorphisms", "closure.search_endomorphisms"),
    ("hilbertalg.adjoint", "adjoint_semilattice", "adjoint.adjoint_semilattice"),
    (
        "hilbertalg.adjoint",
        "minimal_brouwerian_extension",
        "adjoint.minimal_brouwerian_extension",
    ),
    ("hilbertalg.suites", "run_catalog_suites", "suites.run"),
    ("hilbertalg.suites", "_worker", "suites.algebra"),
]

# generator functions: each next() is a span, each yielded item is counted
GENERATORS = [
    ("hilbertalg.enumeration", "search_valid_tables", "enumeration.search"),
]

# (module, class, method, span name)
METHODS = [
    ("hilbertalg.lattice", "FiniteLattice", "__init__", "lattice.build"),
    ("hilbertalg.lattice", "FiniteLattice", "isomorphism", "lattice.isomorphism"),
]

# span durations kept one by one, for per-algebra percentiles
KEEP = frozenset({"suites.algebra"})


class Tracer:
    """Aggregates nested spans by name: calls and busy (self) time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.items = defaultdict(int)
        self.busy = defaultdict(float)
        self.durations = defaultdict(list)
        self._stack = []  # open spans: [name, start, time covered by children]

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.busy[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        if name in KEEP:
            self.durations[name].append(duration)

    def span(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def generator_span(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                self.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.items[name] += 1
                yield item

        return traced


def _rebind(original, replacement):
    """Point every hilbertalg module attribute that is ``original`` at ``replacement``."""
    undo = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "hilbertalg" or modname.startswith("hilbertalg.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def install(tracer):
    """Wrap the traced functions, methods and suites; return a restore function."""
    import hilbertalg.cli  # noqa: F401  (loads every module that is rebound below)

    undo = []
    for modname, attr, name in FUNCTIONS:
        fn = getattr(sys.modules[modname], attr)
        undo += _rebind(fn, tracer.span(fn, name))
    for modname, attr, name in GENERATORS:
        fn = getattr(sys.modules[modname], attr)
        undo += _rebind(fn, tracer.generator_span(fn, name))
    for modname, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules[modname], cls_name)
        fn = vars(cls)[attr]
        setattr(cls, attr, tracer.span(fn, name))
        undo.append((cls, attr, fn))
    suites = sys.modules["hilbertalg.suites"].ALGEBRA_SUITES
    originals = dict(suites)
    for suite, fn in originals.items():
        suites[suite] = tracer.span(fn, f"suites.{suite}")

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        suites.update(originals)

    return restore
