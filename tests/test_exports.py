"""Every exported name resolves, so a deletion cannot leave a stale export behind."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "smplab"
# where an exported name must be used for it to stay exported: the package
# itself, the demos and the benchmark; a name only the tests use belongs in them
USERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_reached_outside_the_tests(name):
    path = SRC / f"{name}.py"
    spans = {
        node.name: (node.lineno, node.end_lineno)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    used = set()
    for user in USERS:
        for ref, line in _references(ast.parse(user.read_text())):
            lo, hi = spans.get(ref, (0, -1)) if user == path else (0, -1)
            if not lo <= line <= hi:  # a use inside the name's own definition does not count
                used.add(ref)
    exported = getattr(importlib.import_module(f"smplab.{name}"), "__all__", ())
    assert [n for n in exported if n not in used] == []
