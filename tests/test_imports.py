"""Every name a module of the package imports is read somewhere in that module,
only ``filters`` reads ``filter_generated``, and importing the CLI loads no
process pool.

``__init__.py`` is left out: it imports names to re-export them.
"""

import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "hilbertalg")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def unused_imports(source):
    """The names bound by import statements of source that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_guard_finds_an_unused_import():
    source = "from .multipliers import fixpoints, kernel\nimport os.path\n\nkernel(1, 2)\n"
    assert unused_imports(source) == [(1, "fixpoints"), (2, "os")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        source = fh.read()
    assert unused_imports(source) == []


def names_read(source):
    """Every name source reads: a variable, an attribute, or a name it imports."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_the_guard_finds_a_read_of_filter_generated():
    assert "filter_generated" in names_read("from .filters import filter_generated as fg\n")
    assert "filter_generated" in names_read("from . import filters\nfilters.filter_generated(1, 2)\n")


@pytest.mark.parametrize("module", [m for m in MODULES if m != "filters.py"])
def test_only_filters_reads_filter_generated(module):
    # every other module joins filters through FilterLattice, which closes each seed once
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert "filter_generated" not in names_read(fh.read())


def test_the_cli_loads_no_process_pool_until_one_starts():
    # enumerate and one-job runs never start a pool; iter_catalog imports it when it does
    code = "import sys, hilbertalg.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
