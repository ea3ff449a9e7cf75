import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import evauction


MODULES = sorted(m.name for m in pkgutil.iter_modules(evauction.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"evauction.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"evauction.{name}.__all__ names missing attributes: {missing}"


def _private_imports(path):
    """``module._name`` for each underscore name the module at ``path``
    imports from a sibling, by ``from .module import _name`` or as an
    attribute of a sibling imported by ``from . import module``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
        ):
            found.add(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_names():
    """Each rule has one owner: no module reaches another's underscore name."""
    src = Path(evauction.__file__).parent
    found = {
        f"{path.stem}: {name}"
        for path in sorted(src.glob("*.py"))
        for name in _private_imports(path)
    }
    assert not found, f"private names imported across modules: {sorted(found)}"


def _record_builds(tree, scope=()):
    """``(scope, call)`` for each ``DemandState(...)`` construction and
    each ``.apply(...)`` call below ``tree``; ``scope`` names the classes
    and functions the call sits in, outermost first."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (*scope, node.name)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "DemandState":
                yield ".".join(scope), "DemandState(...)"
            elif isinstance(func, ast.Attribute) and func.attr in ("DemandState", "apply"):
                yield ".".join(scope), f".{func.attr}(...)"
        yield from _record_builds(node, inner)


def test_only_build_outcome_builds_the_load_record():
    """A run's ``DemandState`` has one builder: in the package it is
    constructed, and ``apply`` called, only in ``engine.build_outcome``."""
    src = Path(evauction.__file__).parent
    found = {
        f"{path.stem}.{scope}: {call}"
        for path in sorted(src.glob("*.py"))
        for scope, call in _record_builds(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {
        "engine.build_outcome: DemandState(...)",
        "engine.build_outcome: .apply(...)",
    }
