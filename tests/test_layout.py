"""Layout guards for ``src/csflab``.

Every top-level definition in the package is reached from the package
itself or exported in ``csflab.__all__``; a second route that only a test
reaches belongs in ``tests/oracles.py``.  Every module boundary that the
benchmark's tracer wraps by attribute (``BOUNDARIES`` in
``bench/spans.py``) must still resolve.  Both checks read source with
``ast``; nothing under ``bench/`` is imported.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import csflab

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "csflab"
SPANS = ROOT / "bench" / "spans.py"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _registered_command(node):
    """A click command: the ``@main.command()`` decorator registers it."""
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


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


def test_every_definition_is_reached_or_exported():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    uses = _uses(trees)
    exported = set(csflab.__all__)
    unreached = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                continue
            if node.name in exported or _registered_command(node):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            outside = [
                (mod, line)
                for mod, line in uses.get(node.name, [])
                if not (mod == module and first <= line <= node.end_lineno)
            ]
            if not outside:
                unreached.append(f"{module}:{node.lineno} {node.name}")
    assert unreached == []


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
