"""The package's import structure, read from its source with ``ast``: every
import sits at module level, and the imports among the package's own modules
form no cycle (``from . import X`` counts as importing ``__init__``)."""

import ast
from pathlib import Path

import opspectra

PACKAGE = Path(opspectra.__file__).resolve().parent


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def _package_targets(node) -> set:
    """The package modules an import statement loads."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            return {node.module.split(".")[0] if node.module else "__init__"}
        name = node.module or ""
        if name == "opspectra":
            return {"__init__"}
        return {name.split(".")[1]} if name.startswith("opspectra.") else set()
    return {alias.name.split(".")[1] for alias in node.names
            if alias.name.startswith("opspectra.")}


def test_every_import_is_at_module_level():
    inside = set()
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inside |= {(name, node.lineno) for node in _imports(fn)}
    assert not inside, f"imports inside functions: {sorted(inside)}"


def test_package_imports_form_no_cycle():
    modules = _modules()
    graph = {name: set().union(*map(_package_targets, _imports(tree)))
             for name, tree in modules.items()}
    assert set().union(*graph.values()) <= set(graph), graph
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for target in sorted(graph[name]):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return None

    for name in sorted(graph):
        cycle = visit(name)
        assert cycle is None, "import cycle: " + " -> ".join(cycle)
