"""Every exported name resolves, so a deletion cannot leave a stale export behind."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import smplab

MODULES = sorted(m.name for m in pkgutil.iter_modules(smplab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"smplab.{name}")
    exported = list(getattr(mod, "__all__", ()))
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    assert [n for n in exported if not hasattr(mod, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(inspect.getsource(smplab))
    imported = [
        (node.module, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported, "smplab/__init__ imports nothing from its modules"
    for module, name in imported:
        assert hasattr(importlib.import_module(f"smplab.{module}"), name), (module, name)
        assert hasattr(smplab, name), name
