"""Static checks on the package sources, in place of an external linter."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "conelab"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def unread_constants(sources: dict) -> list:
    """(module, line, name) of module-level non-dunder names that are assigned
    but read by none of the given modules, as a bare name or as an attribute."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for node in ast.walk(target):
                        if (isinstance(node, ast.Name) and not node.id.startswith("__")
                                and node.id not in read):
                            found.append((mod, stmt.lineno, node.id))
    return sorted(found)


def test_checker_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\n"
              "class A:\n"
              "    x: float = math.pi\n"
              "def f(p: os.path) -> None:\n"
              "    pass\n")
    assert unused_imports(source) == [(4, "field")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_constant_checker_flags_unread_and_keeps_read():
    sources = {
        "a": ("__version__ = '1'\n"
              "LIMIT = 3\n"
              "TOL: float = 1e-9\n"
              "_IN, _OUT = 1, 0\n"
              "def f(x):\n"
              "    return x < LIMIT and x != _IN\n"),
        "b": ("from . import a\n"
              "SCALE = 2\n"
              "def g():\n"
              "    return a.TOL\n"),
    }
    assert unread_constants(sources) == [("a", 4, "_OUT"), ("b", 2, "SCALE")]


def test_no_unread_module_constants():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_constants(sources) == []
