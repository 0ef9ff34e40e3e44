"""Every module-level function and class of the package, and every method
and property of its classes, is used by the product: an ``ast`` scan of
``src/opspectra`` against every reference in ``src/``, ``perfbench/`` and
``demos/``.

A module-level name passes when ``opspectra/__init__.py`` exports it, and
any name passes when some file there refers to it: as a name, an attribute,
an imported name, or a string constant equal to it or ending in ``.`` and
it (``perfbench/tracer.py`` names the functions it wraps as strings such as
``"StructuredOperator.compose"``).  Dunder methods are exempt, as Python
calls them.  Assigning to a name and docstrings do not count, so a name
that only tests call, or that a docstring merely mentions, fails."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "opspectra"
USERS = ("src", "perfbench", "demos")


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defined(tree) -> dict:
    """{qualified name: name} of the module-level functions and classes, and
    of the methods and properties of every class ('Class.method'), dunder
    methods left out."""
    out = {node.name: node.name for node in tree.body
           if isinstance(node, FUNCTIONS + (ast.ClassDef,))}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            out |= {f"{cls.name}.{item.name}": item.name for item in cls.body
                    if isinstance(item, FUNCTIONS)
                    and not (item.name.startswith("__") and item.name.endswith("__"))}
    return out


def _docstrings(tree) -> set:
    """The ids of the docstring nodes of a module, its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef) + FUNCTIONS) and node.body
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
            out |= {node.value, node.value.rsplit(".", 1)[-1]}
    return out


def _exported(tree) -> set:
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def unused() -> list:
    """Every 'module.name' and 'module.Class.method' of the package that is
    neither exported (module-level names only) nor referenced by the
    product."""
    refs = set()
    for d in USERS:
        for path in sorted((ROOT / d).rglob("*.py")):
            refs |= _referenced(_parse(path))
    exported = _exported(_parse(PACKAGE / "__init__.py"))
    return [f"{path.stem}.{qualified}" for path in sorted(PACKAGE.glob("*.py"))
            for qualified, name in sorted(_defined(_parse(path)).items())
            if name not in refs and (qualified != name or name not in exported)]


def test_every_module_level_name_is_exported_or_used():
    assert unused() == []


def test_the_scan_skips_docstrings_and_counts_strings():
    tree = ast.parse('"""f g"""\n'
                     'def f():\n    """h"""\n    return g()\n'
                     'class C:\n    """k"""\n    x = ("m", "k j", "D.n")\n'
                     '    def __init__(self): pass\n'
                     '    @property\n    def p(self): pass\n'
                     'import a.b as c\nfrom d import e\nobj.attr\n')
    assert _defined(tree) == {"f": "f", "C": "C", "C.p": "p"}
    assert _referenced(tree) == {"g", "m", "k j", "D.n", "n", "b", "e", "obj",
                                 "attr", "property"}
    assert _exported(ast.parse("from .x import (p, q as r)\n")) == {"p", "r"}
