"""Every module of the package, and every module of its tests, uses each
name it imports.

No linter runs over the sources, so this check stands in for one: a
deletion that leaves an import behind fails here.  A name the module lists
in ``__all__`` counts as used (it is re-exported); ``__future__`` imports
are exempt.
"""

import ast
from pathlib import Path

import pytest

import arcticauction

PACKAGE = Path(arcticauction.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))


def _module_id(path: Path) -> str:
    """A package module by its file name, a test module under ``tests/``."""
    return path.name if path.parent == PACKAGE else f"tests/{path.name}"


def _annotation_names(annotation: ast.expr | None) -> set[str]:
    """Names read by an annotation written as a string (``"Equilibrium"``)."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        tree = ast.parse(annotation.value, mode="eval")
        return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names the module imports and neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.FunctionDef):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_catches_a_leftover_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from dataclasses import dataclass, field\n"
        "from fractions import Fraction\n"
        "import os.path\n"
        "from x import y as z\n"
        "__all__ = ['z']\n"
        "def f(a: 'Fraction') -> int:\n"
        "    return os.path.sep + field()\n"
    )
    assert unused_imports(source) == ["line 2: math", "line 3: dataclass"]
