"""The benchmark's tracer must find every entry point it wraps.

``perfbench/tracer.py`` wraps named functions and methods of ``hilbertalg``;
renaming or deleting one of them breaks the traced benchmark run, so it is
checked here with the rest of the package.
"""

import importlib.util
import os

from hilbertalg import enumeration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores(godel3):
    tracer_module = load_tracer()
    original = enumeration.are_isomorphic
    tracer = tracer_module.Tracer()
    restore = tracer_module.install(tracer)
    try:
        assert enumeration.are_isomorphic is not original
        assert enumeration.are_isomorphic(godel3, godel3) is not None
    finally:
        restore()
    assert enumeration.are_isomorphic is original
    assert tracer.calls["enumeration.are_isomorphic"] == 1
