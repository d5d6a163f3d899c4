"""Every name a module of the package imports is read somewhere in that module,
every name the package exports is read by another of its modules or by the
README's library sketch, the sketch runs and gives the values its comments
state, only ``filters`` reads ``filter_generated``, and the CLI loads no
process pool module, even when it forks workers.

The package reads its exports from their submodules on first use, through
the ``_EXPORTS`` table of ``__init__.py``; the second guard reads that
table's names.  Importing one module loads only what it imports, the CLI
still loads every module, and each export is its submodule's object.
"""

import ast
import os
import re
import subprocess
import sys
import types
from importlib import import_module

import pytest

import hilbertalg
from hilbertalg import multipliers

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "hilbertalg")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def readme_sketch():
    """The Python block under the README's "Library sketch" heading."""
    return re.search(r"^## Library sketch\n\n```python\n(.*?)^```", read(README), re.M | re.S).group(1)


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


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_no_unused_imports(module):
    assert unused_imports(read(os.path.join(SRC, module))) == []


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


def exported_names(init_source):
    """The names of the ``_EXPORTS`` table, exported name -> submodule, of init_source."""
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("no _EXPORTS table")


def unread_exports(init_source, sources):
    """The names init_source exports that none of sources reads."""
    read_somewhere = set().union(*map(names_read, sources))
    return [name for name in exported_names(init_source) if name not in read_somewhere]


def test_the_guard_finds_an_export_nothing_reads():
    init = '_EXPORTS = {"kernel": "core", "orphan": "core", "bits": "lattice"}\n'
    assert unread_exports(init, ["kernel(1)\n", "from .lattice import bits\n"]) == ["orphan"]
    with pytest.raises(AssertionError):
        unread_exports("from .core import kernel\n", [])


def test_every_export_is_read_in_the_package_or_the_readme_sketch():
    sources = [read(os.path.join(SRC, m)) for m in MODULES] + [readme_sketch()]
    assert unread_exports(read(os.path.join(SRC, "__init__.py")), sources) == []


def test_the_readme_sketch_gives_the_values_its_comments_state():
    # run the block a statement at a time, keeping each bare expression's value by its text
    sketch, namespace, values = readme_sketch(), {}, {}
    for stmt in ast.parse(sketch).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(sketch, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values["partial_join(alg, 0, 1)"] == 2
    assert values["partial_meet(alg, 0, 1)"] is None
    assert values["s.filters.closure(0b001)"] == 0b101
    assert values["s.filters.join(0b101, 0b110)"] == 0b111
    assert values["s.retracts"] == [0b100, 0b101, 0b110, 0b111]
    assert values["special_closure_retracts(alg, s.translate_unions)"] == values["s.retracts"]
    assert values["s.monomial_ce(0b101)"] == (2, 1, 2)
    assert values["s.cross_meets(0b101, 0b110)"] == 0b111
    assert values["fset(fixpoints(alg, f))"] == "{1,2}"


def test_the_guard_finds_a_read_of_filter_generated():
    assert "filter_generated" in names_read("from .filters import filter_generated as fg\n")
    assert "filter_generated" in names_read("from . import filters\nfilters.filter_generated(1, 2)\n")


@pytest.mark.parametrize("module", [m for m in MODULES if m != "filters.py"])
def test_only_filters_reads_filter_generated(module):
    # every other module joins filters through FilterLattice, which closes each seed once
    assert "filter_generated" not in names_read(read(os.path.join(SRC, module)))


def test_the_cli_loads_no_process_pool_until_one_starts():
    # verify forks its workers itself, so not even a --jobs 2 run loads a pool
    # module; its records are named tuples and plain classes, so nothing loads
    # dataclasses, nor inspect, which dataclasses imports
    code = (
        "import contextlib, io, sys, hilbertalg.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert hilbertalg.cli.main(['verify', '--enumerate', '4', '--suite', 'all', '--jobs', '2']) == 0\n"
        "unwanted = {'concurrent.futures', 'multiprocessing', 'logging', 'dataclasses', 'inspect'}\n"
        "print(sorted(unwanted & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def modules_loaded_by(statement):
    """The hilbertalg modules a fresh interpreter holds after running statement."""
    code = f"import sys\n{statement}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'hilbertalg'))"
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(ast.literal_eval(out.stdout))


def test_importing_core_loads_only_core_and_lattice():
    assert modules_loaded_by("import hilbertalg.core") == {"hilbertalg", "hilbertalg.core", "hilbertalg.lattice"}


def test_importing_the_cli_loads_every_module():
    # perfbench's tracer rebinds functions of every module after importing hilbertalg.cli alone
    every = {f"hilbertalg.{m[:-3]}" for m in MODULES if m != "__main__.py"}
    assert len(every) == 12
    assert modules_loaded_by("import hilbertalg.cli") == {"hilbertalg", *every}


def test_every_export_is_its_submodules_object_and_is_listed():
    listed = dir(hilbertalg)
    for name in hilbertalg.__all__:
        module = hilbertalg._EXPORTS.get(name)
        if module is None:  # a submodule, which star imports still bind
            assert isinstance(getattr(hilbertalg, name), types.ModuleType), name
        else:
            assert getattr(hilbertalg, name) is getattr(import_module(f"hilbertalg.{module}"), name), name
        assert name in listed, name
    namespace = {}
    exec("from hilbertalg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hilbertalg.__all__)
    assert "__version__" in vars(hilbertalg)


def test_an_export_is_read_from_its_submodule_on_every_access(monkeypatch):
    replacement = object()
    monkeypatch.setattr(multipliers, "kernel", replacement)
    assert hilbertalg.kernel is replacement


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hilbertalg.no_such_name
