import ast
import collections
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


def _exported(tree):
    """The names a module's ``__all__`` lists (none without one)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(tree):
    """The names a module imports but never uses: each name an ``import``
    or ``from ... import`` binds (``__future__`` aside) that no other name
    in the module spells and ``__all__`` does not list."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - _exported(tree))


def test_no_module_imports_a_name_it_never_uses():
    """A rule that moves leaves no import behind. ``__init__`` is exempt:
    its imports are the package's re-exports."""
    src = Path(evauction.__file__).parent
    found = [
        f"{path.stem}: {name}"
        for path in sorted(src.glob("*.py"))
        if path.stem != "__init__"
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, f"imported names never used: {found}"


def _names(node):
    """Every name ``node`` spells: each ``Name``, each attribute and each
    name a ``from ... import`` binds."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def test_every_top_level_definition_is_used_or_exported():
    """No top-level function or class goes unused: each is named somewhere
    in the package outside its own definition, or listed in its module's
    ``__all__``."""
    src = Path(evauction.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    # the names each top-level statement spells, and how many statements spell each
    spelled = {id(node): _names(node) for tree in trees.values() for node in tree.body}
    statements = collections.Counter(name for names in spelled.values() for name in names)
    unused = []
    for stem, tree in trees.items():
        exported = _exported(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            elsewhere = statements[node.name] - (node.name in spelled[id(node)])
            if node.name not in exported and not elsewhere:
                unused.append(f"{stem}.{node.name}")
    assert not unused, f"top-level definitions never used: {unused}"
