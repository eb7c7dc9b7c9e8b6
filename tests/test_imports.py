"""Every module-level import in the package is used in its module, every
exported name is used somewhere in the package, and the package root binds
nothing but its version, so each name has one import path.  A format or row
layout the package writes, the per-step requirement's arithmetic, and the
weight update's logistic, is spelled out in one module.

No linter is part of the toolchain, so these are the checks that catch an
import left behind when code moves from one module to another, and an
export whose last caller went away.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "convexmix"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _exports(tree: ast.Module) -> list[str]:
    return [
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    ]


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in __all__ is used: the module exports it
    return imported - used - set(_exports(tree))


def _unused_exports(sources: dict[str, str]) -> set[tuple[str, str]]:
    """``(module, name)`` for each name in a module's ``__all__`` that nothing uses.

    A use is a name read bare, or read as an attribute of a package module
    (``oracle.x``), anywhere outside the name's own definition.  Imports and
    ``__all__`` entries are not uses.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = set()  # (name, module, top-level definition the use sits in)
    for module, tree in trees.items():
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    uses.add((node.id, module, owner))
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in trees):
                    uses.add((node.attr, module, owner))
    return {
        (module, name)
        for module, tree in trees.items()
        for name in _exports(tree)
        if not any(n == name and (m, o) != (module, name) for n, m, o in uses)
    }


def _bound_names(source: str) -> set[str]:
    """Every name a module binds: imports, assignments, functions and classes."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_the_check_sees_a_bound_name():
    source = "from .a import f as g\nfrom . import b\nimport os.path\nx, y = 1, 2\nclass C: pass\n"
    assert _bound_names(source) == {"g", "b", "os", "x", "y", "C"}


def test_package_root_binds_only_the_version():
    """Each name has one import path, its module's: the package root re-exports nothing."""
    assert _bound_names((PACKAGE / "__init__.py").read_text()) == {"__version__"}


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nimport sys\nfrom math import pi, tau\nprint(sys, pi)\n") == {
        "os", "tau"}
    assert _unused_imports("from .a import f\n__all__ = ['f']\n") == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == set()


def test_the_check_sees_an_unused_export():
    sources = {
        "a": "__all__ = ['f', 'g', 'h']\ndef f():\n    return f()\ndef g():\n    return 1\n"
             "def h():\n    return np.add.accumulate\n",
        "b": "from . import a\n__all__ = ['accumulate']\ndef accumulate():\n    return a.g()\n",
    }
    assert _unused_exports(sources) == {("a", "f"), ("a", "h"), ("b", "accumulate")}


def test_every_export_is_used():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert _unused_exports(sources) == set()


@pytest.mark.parametrize("token, owner", [
    ("%.17g", "signals.py"),  # the CSV number format
    ("WITNESS_COLUMNS", "audit.py"),  # an evaluated instance as a witness row
    ("b * e_beta", "bounds.py"),  # the per-step requirement's comparator term
    ("log((1.0 - ", "bounds.py"),  # the progress's log ratio on the second expert
    ("copysign(rho", "mixture.py"),  # the logistic's exp argument, -|rho|
])
def test_each_decision_is_written_in_one_module(token, owner):
    """A format, a row layout or a formula that two modules spell out has to change in both."""
    assert [p.name for p in MODULES if token in p.read_text()] == [owner]
