"""Layout guards for ``src/csflab``.

Every top-level definition in the package, and every non-dunder method of
``Poset``, ``QRat`` and ``SymFunc``, is reached from the package
itself, exported in ``csflab.__all__``, or a console script that
``pyproject.toml`` names; a second route that only a test
reaches belongs in ``tests/oracles.py``.  An export alone keeps a
definition in ``src/`` only when the benchmark's tracer wraps it by
attribute (``BOUNDARIES`` in ``bench/spans.py``), and those names are
pinned here, so a test-only helper cannot come back by being exported.
Every boundary the tracer wraps must still resolve.  The checks read
source with ``ast``; nothing under ``bench/`` is imported.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import re

import csflab

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "csflab"
SPANS = ROOT / "bench" / "spans.py"
PYPROJECT = ROOT / "pyproject.toml"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# classes whose non-dunder methods must be reached too; a use is matched by
# name, so a method passes when any same-named attribute is used elsewhere
METHODS_CHECKED = ("Poset", "QRat", "SymFunc")


def _uses(trees):
    """Name -> [(module, line)] for every name and attribute use."""
    out = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append((module, node.lineno))
    return out


def _definitions(tree):
    """(node, exportable): the top-level definitions, then the non-dunder
    methods of the classes in ``METHODS_CHECKED``, which no export covers."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        yield node, True
        if isinstance(node, ast.ClassDef) and node.name in METHODS_CHECKED:
            for method in node.body:
                if isinstance(method, DEFINITIONS) and not (
                    method.name.startswith("__") and method.name.endswith("__")
                ):
                    yield method, False


def _unreached():
    """(module, node, exportable) for each definition of ``_definitions``
    that nothing else in the package uses."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    uses = _uses(trees)
    for module, tree in trees.items():
        for node, exportable in _definitions(tree):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            outside = [
                (mod, line)
                for mod, line in uses.get(node.name, [])
                if not (mod == module and first <= line <= node.end_lineno)
            ]
            if not outside:
                yield module, node, exportable


def test_every_definition_is_reached_or_exported():
    exported = set(csflab.__all__)
    scripts = set(re.findall(r'"csflab\.(\w+):(\w+)"', PYPROJECT.read_text()))
    assert scripts
    unreached = [
        f"{module}:{node.lineno} {node.name}"
        for module, node, exportable in _unreached()
        if not (exportable and (node.name in exported or (module[:-3], node.name) in scripts))
    ]
    assert unreached == []


# The definitions that only their export keeps in ``src/``: no production
# route calls them, and the tracer wraps each by name.  When the tracer
# stops wrapping one, it moves to ``tests/oracles.py`` or is deleted.
TRACED_ONLY = {"enumerate_powerful_arrays", "to_elementary"}


def test_only_traced_boundaries_are_kept_by_their_export():
    exported = set(csflab.__all__)
    export_only = {
        node.name for _, node, exportable in _unreached() if exportable and node.name in exported
    }
    assert export_only == TRACED_ONLY
    assert TRACED_ONLY <= {attr for _, attr in _traced_boundaries()}


def _traced_boundaries():
    tree = ast.parse(SPANS.read_text(), str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no BOUNDARIES in {SPANS}")


def test_traced_boundaries_resolve():
    boundaries = _traced_boundaries()
    assert boundaries
    missing = []
    for owner, attr in boundaries:
        module, _, cls = owner.partition(".")
        obj = importlib.import_module(f"csflab.{module}")
        if cls:
            obj = getattr(obj, cls, None)
        if not callable(getattr(obj, attr, None)):
            missing.append(f"{owner}.{attr}")
    assert missing == []
