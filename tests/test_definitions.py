"""Every function, class and method of the package is referenced somewhere,
and none takes a flag.

A definition counts as live when its name is read (as a name, an
attribute, or inside a string annotation) anywhere in the package's
sources or in ``perfbench/``.  Tests do not count: library code that only
the tests call is dead weight.  Dunders and the names the package lists in
``__all__`` (its public interface) are exempt.

A parameter annotated ``bool`` (alone or in a union such as ``bool |
None``) is a flag that switches a function between two behaviours; each
behaviour belongs in a function of its own, or the check it skips in one
place.
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


def _is_bool(annotation: ast.expr | None) -> bool:
    """Whether an annotation is ``bool`` or a union with a ``bool`` member."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _is_bool(annotation.left) or _is_bool(annotation.right)
    return isinstance(annotation, ast.Name) and annotation.id == "bool"


def flag_parameters(sources: dict[str, str]) -> list[str]:
    """``file:line function(parameter)`` of each parameter of a function or
    method in ``sources`` (file name -> source) annotated ``bool``."""
    flags = []
    for name, source in sorted(sources.items()):
        nodes = [
            n
            for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in sorted(nodes, key=lambda n: n.lineno):
            a = node.args
            for arg in [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]:
                if arg is not None and _is_bool(arg.annotation):
                    flags.append(f"{name}:{arg.lineno} {node.name}({arg.arg})")
    return flags


def test_no_function_takes_a_flag():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert flag_parameters(sources) == []


def test_check_catches_a_planted_flag():
    source = (
        "def run(steps: int, verbose: bool = False) -> bool:\n"
        "    return verbose\n"
        "class Loop:\n"
        "    def step(self, *, strict: 'bool | None' = None, table: dict[str, bool]):\n"
        "        return strict\n"
        "def ok(count: int) -> bool:\n"
        "    return count > 0\n"
    )
    assert flag_parameters({"mod.py": source}) == [
        "mod.py:1 run(verbose)",
        "mod.py:4 step(strict)",
    ]
