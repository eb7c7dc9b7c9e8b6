"""Every module-level import in the package is used in its module, every
exported name is used somewhere in the package, every parameter default is
overridden by some call in the package, the package root binds nothing
but its version (so each name has one import path), and no attribute read
in the package is another object's private one.  A format or row layout
the package writes, the per-step requirement's arithmetic, and the weight
update's logistic, is spelled out in one module.

No linter is part of the toolchain, so these are the checks that catch an
import left behind when code moves from one module to another, an export
whose last caller went away, a setting no caller sets, and a dependency's
undocumented internal read by name.
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


def _defs(node: ast.AST, prefix: str = ""):
    """``(qualified name, def, whether it is a method)`` for every def under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child, isinstance(node, ast.ClassDef)
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _defs(child, f"{prefix}{child.name}." if named else prefix)


def _unpassed_defaults(sources) -> set[str]:
    """``def.parameter`` for each parameter with a default that no call passes.

    A call ``f(...)`` or ``x.f(...)`` is matched to every def named ``f``,
    and a call of a class to its ``__init__``; a method's positions start
    after ``self``.  A parameter is passed by keyword or by position, and a
    ``*`` or ``**`` splat passes all of them.
    """
    trees = [ast.parse(source) for source in sources]
    defs = [entry for tree in trees for entry in _defs(tree)]
    callees = {}  # called name -> [(qualified name, def, positions skipped)]
    for qualname, node, method in defs:
        name = qualname.split(".")[-2] if node.name == "__init__" else node.name
        callees.setdefault(name, []).append((qualname, node, int(method)))
    passed = set()
    for call in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        splat = (any(isinstance(arg, ast.Starred) for arg in call.args)
                 or any(kw.arg is None for kw in call.keywords))
        for qualname, node, skip in callees.get(name, ()):
            params = node.args.posonlyargs + node.args.args
            if splat:
                params += node.args.kwonlyargs
            else:
                params = params[skip : skip + len(call.args)]
            passed |= {(qualname, p.arg) for p in params} | {(qualname, kw.arg) for kw in call.keywords}
    defaulted = set()
    for qualname, node, _ in defs:
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted |= {(qualname, p.arg) for p in positional[len(positional) - len(args.defaults):]}
        defaulted |= {(qualname, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None}
    return {f"{qualname}.{param}" for qualname, param in defaulted - passed}


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


def test_the_check_sees_an_unpassed_default():
    source = (
        "def f(a, b=1, *, c=2, d=3):\n    pass\n"
        "def g(x=0):\n    def h(y=1):\n        pass\n    return h\n"
        "def k(z=0):\n    pass\n"
        "class C:\n    def __init__(self, p=1, q=2):\n        pass\n"
        "    def m(self, r=1, s=2):\n        pass\n"
        "f(0, 5, c=1)\ng(*[])\nk(**{})\nC(7).m(1)\n"
    )
    assert _unpassed_defaults([source]) == {"f.d", "g.h.y", "C.__init__.q", "C.m.s"}


def test_every_defaulted_parameter_is_passed():
    """A default that no caller overrides is a constant written as a
    parameter.  The one exception is ``cli.main``'s ``argv``: ``__main__.entry``,
    the process entry, calls it bare."""
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert _unpassed_defaults(sources) - {"main.argv"} == set()


def _private_attributes(source: str) -> set[str]:
    """Each attribute name read in ``source`` that starts with ``_``, dunders apart.

    Such a name is another object's internal: argparse's ``_subparsers``, a
    module's ``_helper``.  A module calls its own helpers by bare name.
    """
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
    }


def test_the_check_sees_a_private_attribute():
    source = ("import argparse\np = argparse.ArgumentParser()\n"
              "sub = p._subparsers._group_actions[0]\nx = p.__class__.__name__\n"
              "_helper(p.prog)\nsub._actions.append(p._defaults)\n")
    assert _private_attributes(source) == {"_subparsers", "_group_actions", "_actions",
                                           "_defaults"}


def test_no_private_attribute_is_read():
    """The package reads only what its dependencies and its own modules make
    public, so no undocumented internal can change under it."""
    found = {p.name: _private_attributes(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: attrs for name, attrs in found.items() if attrs} == {}


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
