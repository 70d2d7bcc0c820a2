"""Every name a library module imports is used in that module, and every
private function, method or class of the package is read somewhere in it.

`__init__.py` is skipped by the import check: its imports are the package's
public names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "defring"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str):
    """(name, line) of each import the module never reads, quoted annotations included."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                quoted = ast.parse(const.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return [(name, line) for name, line in _imported(tree) if name not in used]


def unread_private_definitions(sources):
    """(module, name, line) of each underscore-prefixed, non-dunder function,
    method or class that no ast.Name or ast.Attribute in `sources` (module name
    -> text) reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    nodes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)]
    read = {node.id if isinstance(node, ast.Name) else node.attr for _, node in nodes
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    return [(name, node.name, node.lineno) for name, node in nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_sees_unused_and_quoted_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from typing import List, Optional\n"
              "from .polys import Poly\n"
              "def f(x: 'Poly') -> Optional[int]:\n"
              "    return None\n")
    assert unused_imports(source) == [("os", 2), ("List", 3)]


def test_no_unread_private_definitions():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_definitions(sources) == []


def test_scanner_sees_unread_private_definitions():
    sources = {"a.py": ("def _called():\n"
                        "    pass\n"
                        "class _Unread:\n"
                        "    def __init__(self):\n"
                        "        self._stored = _called()\n"
                        "    def _stored(self):\n"
                        "        pass\n"
                        "    def _method(self):\n"
                        "        pass\n"),
               "b.py": ("from .a import _Unread\n"
                        "bound = obj._method\n")}
    assert unread_private_definitions(sources) == [("a.py", "_Unread", 3),
                                                   ("a.py", "_stored", 6)]
