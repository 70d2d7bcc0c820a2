"""Every name a library module imports is used in that module, every
private function, method or class of the package is read somewhere in it,
and every public one is read outside the tests or stands on `PUBLIC_API`
with its reason.

`__init__.py` is skipped by the import check: its imports are the package's
public names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "defring"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
# The public definitions that only tests read, each kept with a one-line
# reason; checks that only tests ask for live in tests/oracles.py instead.
PUBLIC_API = {}


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


def unread_public_definitions(sources, readers):
    """(module, name, line) of each public (not underscore-prefixed)
    function, method or class in `sources` (module name -> text, the
    library's modules with `__init__.py`) that nothing outside the tests
    reads.  A definition is read by an ast.Name or ast.Attribute load in a
    library module, or by a load, an import or a string constant in
    `readers` (the texts of the scripts and of perfbench, whose tracer
    names what it wraps by strings); an import in `__init__.py`, an export,
    is not a read.  Reads are matched by bare name, not by owner, so a method
    that only tests read goes unseen while anything outside the tests reads
    another definition of that name (`Poly.scale` went unseen behind
    `Matrix.scale`, and `QFiberAlgebra.coords` behind `Layer.coords`;
    nothing at all called `FiniteGroup.mul`, `FiniteGroup.inv` or
    `FiniteGroup.elements`, hidden behind `GaloisRing.mul`, `GaloisRing.inv`
    and `GaloisRing.elements`, nor `Ideal.reduce` or `Ideal.is_zero`, hidden
    behind `HowellForm.reduce` and `RingElement.is_zero`), and a method
    read only by such a method counts as read (`Poly.mul_term`, read only
    by `Poly.scale`)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    for text in readers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [(name, node.name, node.lineno) for name, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


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


def test_no_public_definition_only_tests_read():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    unread = unread_public_definitions(sources, [p.read_text() for p in READERS])
    assert sorted(name for _, name, _ in unread) == sorted(PUBLIC_API)


def test_scanner_sees_public_definitions_only_tests_read():
    sources = {"a.py": ("def used():\n"
                        "    pass\n"
                        "def exported():\n"
                        "    pass\n"
                        "class Unread:\n"
                        "    def scripted(self):\n"
                        "        pass\n"
                        "    def wrapped(self):\n"
                        "        pass\n"
                        "    def test_only(self):\n"
                        "        used()\n"
                        "    def _private(self):\n"
                        "        pass\n"),
               "__init__.py": "from .a import exported\n"}
    readers = ["from defring.a import Unread\n"
               "Unread().scripted()\n"
               "TARGETS = [(Unread, 'wrapped')]\n"]
    assert unread_public_definitions(sources, readers) == [
        ("a.py", "exported", 3), ("a.py", "test_only", 10)]
    assert unread_public_definitions(sources, []) == [
        ("a.py", "exported", 3), ("a.py", "Unread", 5), ("a.py", "scripted", 6),
        ("a.py", "wrapped", 8), ("a.py", "test_only", 10)]
