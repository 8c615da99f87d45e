"""Every module of ``src/`` and ``tests/`` uses each name it imports. A
package ``__init__`` is exempt: its imports are its re-exports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py")
                 if path.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by the module's imports that no other code reads.
    Both annotations and names listed in ``__all__`` count as reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_walk_finds_the_modules():
    assert ROOT / "src" / "featurespace" / "table.py" in MODULES
    assert Path(__file__).resolve() in MODULES


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x)\n")
    assert unused_imports(tree) == ["line 1: os", "line 2: e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
