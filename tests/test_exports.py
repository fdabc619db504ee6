"""Every name a module of the package exports resolves, no module imports a
name it neither uses nor exports, no top-level definition goes unused, and
every typed error has a test."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rkupdate
import rkupdate.errors as errors

MODULES = sorted(info.name for info in pkgutil.iter_modules(rkupdate.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"rkupdate.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(rkupdate.__file__).read_text())
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    module = importlib.import_module(f"rkupdate.{node.module}")
                    names.extend(module.__all__)
                else:
                    names.append(alias.asname or alias.name)
    assert names
    assert [n for n in names if not hasattr(rkupdate, n)] == []


def _exported(tree):
    """The names a module lists in ``__all__``."""
    return {name for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def _unused_imports(source):
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    exported = _exported(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    path = Path(rkupdate.__file__).parent / f"{name}.py"
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_catches_leftovers():
    assert _unused_imports("import os\nimport numpy as np\nx = np.pi\n") == ["os (line 1)"]
    assert _unused_imports("from .a import b, c\n__all__ = ['c']\n") == ["b (line 1)"]


def _referenced_names(node):
    """Names a statement refers to: variables, attributes and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _dead_definitions(sources):
    """Top-level functions and classes of ``sources`` (module name -> source)
    that are neither in their module's ``__all__`` nor referred to by name in
    any module outside their own definition."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    references = [(stmt, _referenced_names(stmt))
                  for tree in trees.values() for stmt in tree.body]
    dead = []
    for module, tree in trees.items():
        exported = _exported(tree)
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if stmt.name not in exported and not any(
                    other is not stmt and stmt.name in names for other, names in references):
                dead.append(f"{module}.{stmt.name}")
    return sorted(dead)


def test_no_dead_definitions():
    package = Path(rkupdate.__file__).parent
    sources = {name: (package / f"{name}.py").read_text() for name in MODULES}
    sources["__init__"] = Path(rkupdate.__file__).read_text()
    assert _dead_definitions(sources) == []


def test_dead_definition_check_catches_leftovers():
    used = {"a": "def f():\n    return 1\n\n\ndef g():\n    return f()\n__all__ = ['g']\n"}
    assert _dead_definitions(used) == []
    assert _dead_definitions({"a": "def f():\n    return f()\n"}) == ["a.f"]
    assert _dead_definitions({"a": "class C:\n    pass\n",
                              "b": "from .a import C\n__all__ = ['C']\n"}) == []
    assert _dead_definitions({"a": "def f():\n    pass\n",
                              "b": "from . import a\n__all__ = ['g']\n\n\n"
                                   "def g():\n    return a.f()\n"}) == []


def test_every_typed_error_is_tested():
    tests = Path(__file__).parent
    text = "".join(p.read_text() for p in tests.rglob("*.py") if p != Path(__file__))
    untested = [n for n in errors.__all__ if n != "RKUpdateError" and n not in text]
    assert untested == []
