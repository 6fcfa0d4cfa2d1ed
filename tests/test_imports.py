"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import k3lattice

MODULES = sorted(p for p in Path(k3lattice.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ re-exports


def _imported_and_used(tree):
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    imported, used = _imported_and_used(ast.parse(path.read_text()))
    unused = {name: line for name, line in imported.items()
              if name not in used}
    assert unused == {}, f"{path.name}: unused imports {unused}"
