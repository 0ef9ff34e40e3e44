"""Every module-level function and class of the package is used by the
product: an ``ast`` scan of ``src/opspectra`` against every reference in
``src/``, ``perfbench/`` and ``demos/``.

A name passes when ``opspectra/__init__.py`` exports it, or when some file
there refers to it: as a name, an attribute, an imported name, or a string
constant equal to it (``perfbench/tracer.py`` names the functions it wraps
as strings).  Assigning to a name and docstrings do not count, so a name
that only tests call, or that a docstring merely mentions, fails."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "opspectra"
USERS = ("src", "perfbench", "demos")


def _defined(tree) -> set:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _docstrings(tree) -> set:
    """The ids of the docstring nodes of a module, its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)) and node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            out.add(id(node.body[0].value))
    return out


def _referenced(tree) -> set:
    docstrings, out = _docstrings(tree), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            out.add(node.value)
    return out


def _exported(tree) -> set:
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def unused() -> list:
    """Every 'module.name' of the package that is neither exported nor
    referenced by the product."""
    refs = set()
    for d in USERS:
        for path in sorted((ROOT / d).rglob("*.py")):
            refs |= _referenced(_parse(path))
    exported = _exported(_parse(PACKAGE / "__init__.py"))
    return [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in sorted(_defined(_parse(path)))
            if name not in exported and name not in refs]


def test_every_module_level_name_is_exported_or_used():
    assert unused() == []


def test_the_scan_skips_docstrings_and_counts_strings():
    tree = ast.parse('"""f g"""\n'
                     'def f():\n    """h"""\n    return g()\n'
                     'class C:\n    """k"""\n    x = ("m", "k j")\n'
                     'import a.b as c\nfrom d import e\nobj.attr\n')
    assert _defined(tree) == {"f", "C"}
    assert _referenced(tree) == {"g", "m", "k j", "b", "e", "obj", "attr"}
    assert _exported(ast.parse("from .x import (p, q as r)\n")) == {"p", "r"}
