"""Every defaulted parameter in the package is set by some call: an ``ast``
scan of each function and method in ``src/opspectra`` against every call in
``src/``, ``tests/``, ``demos/`` and ``perfbench/``.

Calls are matched by the callee's name (``f(...)`` or ``x.f(...)``).  A
parameter counts as passed when some call gives it by keyword, or gives at
least as many positional arguments as it needs; a class call counts for the
class's ``__init__``, and ``functools.partial(f, ...)`` counts as a call of
``f``.  A call with ``*args`` or ``**kwargs`` passes everything it could.

A parameter that only tests set passes that scan, so a second one counts
only the product (``src/``, ``demos/`` and ``perfbench/``) and holds the
parameters it finds unset to a frozen set, which may only shrink."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "opspectra"
CALLERS = ("src", "tests", "demos", "perfbench")
PRODUCT = ("src", "demos", "perfbench")
# the parameters that only tests set, each kept on purpose
TEST_ONLY = {
    "check_paranormal(grid)",                # public; the README documents grid=
    "paranormal_pair_normality(trunc)",      # kept by ROADMAP item 8
    "random_banded_symbol(max_bandwidth)",   # test_raster draws bandwidth-3 symbols
}


def _trees(paths):
    return [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths]


def _defaulted(tree):
    """(name, defaulted parameter names, positional names, positional offset)
    for every function in the tree; a method called on an instance or class
    skips its first parameter, and ``__init__`` is reached through its class."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[item] = node.name
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        names = positional[len(positional) - len(args.defaults):]
        names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
        if not names:
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        offset = 1 if fn in methods and not static else 0
        name = methods[fn] if fn.name == "__init__" and fn in methods else fn.name
        yield name, names, positional, offset


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls(trees):
    """{callee name: [(positional count, keyword names, open-ended)]}."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, args = _callee(node.func), list(node.args)
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in args)
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            double = any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append((len(args), keywords, starred or double))
    return calls


def unpassed(dirs=CALLERS) -> list:
    """Every 'function(parameter)' of the package that no call in ``dirs``
    sets."""
    callers = [p for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]
    calls = _calls(_trees(callers))
    out = []
    for tree in _trees(sorted(PACKAGE.glob("*.py"))):
        for name, defaulted, positional, offset in _defaulted(tree):
            for param in defaulted:
                index = positional.index(param) - offset if param in positional else None
                if not any(open_ended or param in keywords
                           or (index is not None and count > index)
                           for count, keywords, open_ended in calls.get(name, ())):
                    out.append(f"{name}({param})")
    return out


def test_every_defaulted_parameter_is_set_by_some_call():
    assert unpassed() == []


def test_parameters_that_only_tests_set_are_the_frozen_few():
    assert set(unpassed(PRODUCT)) <= TEST_ONLY


def test_the_scan_sees_calls_by_keyword_position_partial_and_class():
    tree = ast.parse("class C:\n    def __init__(self, a=1): pass\n"
                     "    def m(self, b=2): pass\n"
                     "def f(x, y=1, *, z=2): pass\n")
    found = {name: (names, offset) for name, names, _, offset in _defaulted(tree)}
    assert found == {"C": (["a"], 1), "m": (["b"], 1), "f": (["y", "z"], 0)}
    calls = _calls([ast.parse("C(0)\nobj.m(b=3)\npartial(f, z=4)\nf(1, 2)\n")])
    assert calls["C"] == [(1, set(), False)]
    assert calls["m"] == [(0, {"b"}, False)]
    assert calls["f"] == [(0, {"z"}, False), (2, set(), False)]
