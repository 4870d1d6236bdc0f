"""Static checks on the package sources, in place of an external linter,
and a check that the pytest configuration reports failing tests as failures."""

import ast
import importlib
import math
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "conelab"
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


def assert_lines(source: str) -> list:
    """Lines of the assert statements in a module; python -O strips them."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_assert_checker_flags_statements_only():
    source = ("def f(x):\n"
              "    assert x > 0, 'x'\n"
              "    if not x:\n"
              "        raise AssertionError('assert x')\n"
              "    return x\n"
              "assert f(1)\n")
    assert assert_lines(source) == [2, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def _callable_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unset_parameters(sources: dict) -> list:
    """(module, line, "function.parameter") of the defaulted parameters of
    functions and methods defined under src/ that no call in any of the given
    modules passes, by keyword or by position.

    Calls are matched by the called name alone, so a call through an
    attribute counts for every method of that name, and a call of a class
    counts for its __init__. A call with *args or **kwargs passes all.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    passed: dict = {}  # called name -> (max positional count, keywords or None for all)
    for tree in trees.values():
        for node in ast.walk(tree):
            name = _callable_name(node.func) if isinstance(node, ast.Call) else None
            npos, kws = passed.get(name, (0, set()))
            if name is None or kws is None:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(k.arg is None for k in node.keywords):
                passed[name] = (math.inf, None)
            else:
                passed[name] = (max(npos, len(node.args)),
                                kws | {k.arg for k in node.keywords})
    found = []
    for mod, tree in trees.items():
        if not mod.startswith("src/"):
            continue
        owners = {id(fn): cls.name for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            decorators = {_callable_name(d) for d in fn.decorator_list}
            if "property" in decorators:
                continue
            owner = owners.get(id(fn))
            name = owner if fn.name == "__init__" else fn.name
            npos, kws = passed.get(name, (0, set()))
            if kws is None:
                continue
            params = fn.args.posonlyargs + fn.args.args
            if owner is not None and "staticmethod" not in decorators:
                params = params[1:]  # self or cls
            first = len(params) - len(fn.args.defaults)
            unset = [arg for pos, arg in enumerate(params[first:], start=first)
                     if pos >= npos and arg.arg not in kws]
            unset += [arg for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if default is not None and arg.arg not in kws]
            found += [(mod, fn.lineno, f"{fn.name}.{arg.arg}") for arg in unset]
    return sorted(found)


def test_unset_checker_flags_unpassed_and_keeps_passed():
    sources = {
        "src/pkg/a.py": ("class Tree:\n"
                         "    def __init__(self, root, k=None):\n"
                         "        self.root = root\n"
                         "    def walk(self, depth, stop=None, trace=False):\n"
                         "        return depth\n"
                         "    @staticmethod\n"
                         "    def make(n, seed=0):\n"
                         "        return Tree(n)\n"
                         "def measure(tree, depth=3, *, tol=1e-9):\n"
                         "    return tree.walk(depth, None)\n"
                         "def forward(*args, **kwargs):\n"
                         "    return measure(*args, **kwargs)\n"
                         "def spare(x, scale=2.0):\n"
                         "    return x * scale\n"),
        "tests/test_a.py": ("from pkg.a import Tree, measure, spare\n"
                            "def test_it(bias=1):\n"
                            "    tree = Tree.make(2, 7)\n"
                            "    assert spare(tree.walk(4, trace=True))\n"),
    }
    assert unset_parameters(sources) == [("src/pkg/a.py", 2, "__init__.k"),
                                         ("src/pkg/a.py", 13, "spare.scale")]


def test_no_unset_parameters():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for folder in ("src", "tests", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))}
    assert unset_parameters(sources) == []


def unread_parameters(sources: dict) -> list:
    """(module, line, "function.parameter") of the parameters of named
    functions and methods under src/ that the function body never reads.

    self and cls, names that start with "_" and lambdas (whose signatures
    are set by their callers) are skipped. A read inside a nested function
    counts for the enclosing one.
    """
    found = []
    for mod, src in sources.items():
        if not mod.startswith("src/"):
            continue
        for fn in ast.walk(ast.parse(src)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            found += [(mod, fn.lineno, f"{fn.name}.{a.arg}") for a in params
                      if a.arg not in ("self", "cls") and not a.arg.startswith("_")
                      and a.arg not in read]
    return sorted(found)


def test_unread_checker_flags_unread_and_keeps_read():
    sources = {
        "src/pkg/a.py": ("class Tree:\n"
                         "    def walk(self, depth, stop=None):\n"
                         "        return depth\n"
                         "    @classmethod\n"
                         "    def make(cls, n, _seed):\n"
                         "        return cls()\n"
                         "def outer(x, y, *rest, scale=1.0, **opts):\n"
                         "    def inner(z):\n"
                         "        return z * y\n"
                         "    fn = lambda level, flat: 0.0\n"
                         "    return inner(x) + len(opts) + fn(0, 0)\n"),
        "tests/test_a.py": "def test_it(tmp_path):\n    pass\n",
    }
    assert unread_parameters(sources) == [("src/pkg/a.py", 2, "walk.stop"),
                                          ("src/pkg/a.py", 5, "make.n"),
                                          ("src/pkg/a.py", 7, "outer.rest"),
                                          ("src/pkg/a.py", 7, "outer.scale")]


def test_no_unread_parameters():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert unread_parameters(sources) == []


def perfbench_names(sources: dict, modules: set) -> list:
    """(module, name) of every conelab name that the benchmark sources reach
    by name: attributes read off a name that the same file binds to a
    conelab module by import (`from conelab import X` or
    `import conelab.X as X`), names imported from a conelab module, and the
    "module.name" entries of run.py's TREE_METHODS (MeasureTree methods)
    and LAYER_FUNCTIONS, which it wraps through getattr. Any other name,
    such as a local variable that shares a module's name, is not read as a
    module."""
    found = set()
    for mod, src in sources.items():
        tree = ast.parse(src)
        bound = {}  # local name -> the conelab module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "conelab":
                bound.update((alias.asname or alias.name, alias.name)
                             for alias in node.names if alias.name in modules)
            elif isinstance(node, ast.Import):
                bound.update((alias.asname, alias.name[8:]) for alias in node.names
                             if alias.asname and alias.name[8:] in modules
                             and alias.name.startswith("conelab."))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                found.add((bound[node.value.id], node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("conelab."):
                found.update((node.module[8:], alias.name) for alias in node.names)
        if mod != "run.py":
            continue
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
                if stmt.targets[0].id == "TREE_METHODS":
                    found.update(("measure.MeasureTree", m) for m in ast.literal_eval(stmt.value))
                elif stmt.targets[0].id == "LAYER_FUNCTIONS":
                    found.update(tuple(f.split(".")) for f in ast.literal_eval(stmt.value))
    return sorted(found)


def test_perfbench_names_checker_reads_every_form():
    sources = {
        "run.py": ("from conelab import measure\n"
                   "TREE_METHODS = ('children',)\n"
                   "LAYER_FUNCTIONS = ('cli._parallel',)\n"
                   "def f(tree):\n"
                   "    return measure._classify(tree, measure)\n"),
        "check.py": ("from conelab.density import worst_cone_ratio\n"
                     "import conelab.geometry as geometry\n"
                     "def g():\n"
                     "    from conelab import cli as front\n"
                     "    return front.main, geometry.build_direction_net\n"),
        # a local dict that shares a module's name is not that module
        "local.py": ("import conelab\n"
                     "checks = {'a': 1}\n"
                     "density = 2.0\n"
                     "def h():\n"
                     "    return checks.items(), density.real, conelab.__version__\n"),
    }
    assert perfbench_names(sources, {"measure", "density", "geometry", "cli", "checks"}) == [
        ("cli", "_parallel"), ("cli", "main"), ("density", "worst_cone_ratio"),
        ("geometry", "build_direction_net"), ("measure", "_classify"),
        ("measure.MeasureTree", "children")]


def test_every_name_perfbench_reaches_exists():
    # a rename or deletion here breaks the benchmark, not the test suite
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "perfbench").glob("*.py"))}
    names = perfbench_names(sources, {path.stem for path in MODULES})
    assert {("measure", "_classify"), ("cli", "_parallel"),
            ("measure.MeasureTree", "sample_points")} <= set(names)
    missing = []
    for owner, name in names:
        mod, _, cls = owner.partition(".")
        module = importlib.import_module(f"conelab.{mod}")
        if cls:
            found = hasattr(getattr(module, cls), name)
        else:  # LAYER_FUNCTIONS names MeasureTree methods as measure.<method>
            found = hasattr(module, name) or hasattr(getattr(module, "MeasureTree", None), name)
        if not found:
            missing.append(f"{owner}.{name}")
    assert missing == []


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(x):
    assert x != x
"""


def test_failing_hypothesis_test_is_a_failure_not_an_internal_error(tmp_path):
    # With filterwarnings = error, a warning raised while hypothesis reports
    # a failure (it may import libcst, which warns about mypy_extensions)
    # used to stop the session with INTERNALERROR, exit code 3.
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "1 failed" in proc.stdout
