"""Every function, class and method of the package is referenced somewhere.

A definition counts as live when its name is read (as a name, an
attribute, or inside a string annotation) anywhere in the package's
sources or in ``perfbench/``.  Tests do not count: library code that only
the tests call is dead weight.  Dunders and the names the package lists in
``__all__`` (its public interface) are exempt.
"""

import ast
from pathlib import Path

import arcticauction

from test_imports import _annotation_names

PACKAGE = Path(arcticauction.__file__).parent
READERS = sorted(PACKAGE.glob("*.py")) + sorted(
    (PACKAGE.parents[1] / "perfbench").rglob("*.py")
)

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _read_names(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _annotation_names(node.annotation)
    return names


def unreferenced(definers: dict[str, str], readers: list[str], exempt: set[str]) -> list[str]:
    """``file: line name`` of each definition in ``definers`` (file name ->
    source) whose name no source in ``readers`` reads."""
    read: set[str] = set()
    for source in readers:
        read |= _read_names(ast.parse(source))
    dead = []
    for name, source in sorted(definers.items()):
        nodes = [n for n in ast.walk(ast.parse(source)) if isinstance(n, DEFINITIONS)]
        for node in sorted(nodes, key=lambda n: n.lineno):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in read and node.name not in exempt:
                dead.append(f"{name}:{node.lineno} {node.name}")
    return dead


def test_every_definition_is_referenced():
    definers = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    assert unreferenced(definers, readers, set(arcticauction.__all__)) == []


def test_check_catches_a_planted_unused_function():
    source = (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.value = helper()\n"
        "    def unused_method(self):\n"
        "        return 1\n"
        "def helper() -> 'Box':\n"
        "    return 0\n"
        "def planted():\n"
        "    return 2\n"
        "def exported():\n"
        "    return Box()\n"
    )
    assert unreferenced({"mod.py": source}, [source], {"exported"}) == [
        "mod.py:4 unused_method",
        "mod.py:8 planted",
    ]
