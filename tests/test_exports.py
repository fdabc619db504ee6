"""Every name a module of the package exports resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rkupdate

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
