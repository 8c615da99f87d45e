"""Every private name that ``src/featurespace/`` defines at module level, and
every private method of its classes, is read somewhere in ``src/``: code
that only tests reach is dead code. Every public module-level name is read
somewhere in ``src/``, ``tests/`` or ``perfbench/``, or is exported by
``featurespace.__all__``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import featurespace

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
PACKAGE = [path for path in SOURCES if (ROOT / "src" / "featurespace") in path.parents]
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def module_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """The names the module binds at its top level (functions, classes,
    assigned names), with their line numbers."""
    found = []
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(name.id, node.lineno) for target in targets
                      for name in ast.walk(target) if isinstance(name, ast.Name)]
    return found


def private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """The private names the module binds at its top level and the private
    methods of its classes, with their line numbers."""
    found = module_definitions(tree) + [
        (method.name, method.lineno) for node in tree.body if isinstance(node, ast.ClassDef)
        for method in node.body if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(name, line) for name, line in found if _private(name)]


def names_read(tree: ast.Module) -> set[str]:
    """The names the module reads: loaded names, loaded attributes, and the
    names it imports from other modules."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


READ_IN_SRC = set().union(*(names_read(_parse(path)) for path in SOURCES))
READ_ANYWHERE = READ_IN_SRC.union(*(
    names_read(_parse(path)) for folder in ("tests", "perfbench")
    for path in sorted((ROOT / folder).rglob("*.py"))))


def test_an_unread_private_name_is_found():
    tree = ast.parse("_A = 1\n_B: int = 2\ndef _f(): return _A\n"
                     "class _C:\n    def _m(self): pass\n    def _n(self): self._m()\n"
                     "from x import _g\n_g()\n")
    assert sorted(private_definitions(tree)) == [
        ("_A", 1), ("_B", 2), ("_C", 4), ("_f", 3), ("_m", 5), ("_n", 6)]
    assert {"_A", "_m", "_g"} <= names_read(tree)
    assert not {"_B", "_C", "_f", "_n"} & names_read(tree)
    assert sorted(module_definitions(ast.parse("A = 1\nclass B:\n    def m(self): pass\n"))) \
        == [("A", 1), ("B", 2)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unread_private_name(path):
    unread = [f"line {line}: {name}" for name, line in private_definitions(_parse(path))
              if name not in READ_IN_SRC]
    assert unread == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unread_public_name(path):
    unread = [f"line {line}: {name}" for name, line in module_definitions(_parse(path))
              if not name.startswith("_") and name not in READ_ANYWHERE
              and name not in featurespace.__all__]
    assert unread == []
