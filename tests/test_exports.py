"""Every name a module of the package exports resolves, no module imports a
name it neither uses nor exports, and every typed error has a test."""

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


def _unused_imports(source):
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
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


def test_every_typed_error_is_tested():
    tests = Path(__file__).parent
    text = "".join(p.read_text() for p in tests.rglob("*.py") if p != Path(__file__))
    untested = [n for n in errors.__all__ if n != "RKUpdateError" and n not in text]
    assert untested == []
