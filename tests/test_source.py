"""Source hygiene: every name a module of the package imports is used in it,
every private top-level name a module defines is read somewhere in the
package, and every error class the package defines is raised in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "udgcut"


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import in source and never read; __future__
    imports are directives, not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns]
    # a quoted annotation names its types inside a string
    quoted = [ast.parse(n.value, mode="eval") for a in annotations for n in ast.walk(a)
              if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    used = {n.id for root in [tree, *quoted] for n in ast.walk(root)
            if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_import_check_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from fractions import Fraction as F\n"
              "from .drawing import MeshDrawing, crossings\n"
              "from .geometry import Point\n"
              "def f(p: 'Point') -> None:\n"
              "    return crossings(json)\n")
    assert _unused_imports(source) == ["F", "MeshDrawing", "os"]


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each private top-level name that a module defines and
    no module reads: by name, as an attribute, or in an import."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read |= {a.name for a in n.names}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = (node.targets if isinstance(node, ast.Assign) else
                           [node.target] if isinstance(node, ast.AnnAssign) else [])
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            unread += [f"{module}:{name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(unread)


def test_every_private_top_level_name_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unread_private_names(sources) == []


def test_the_private_name_check_finds_unread_names():
    sources = {"a.py": ("_A, _B = 1, 2\n"
                        "_C: int = 3\n"
                        "__all__ = []\n"
                        "def _f():\n"
                        "    return _A\n"
                        "class _K:\n"
                        "    _unused_attr = 0\n"),
               "b.py": "from .a import _f\n"}
    assert _unread_private_names(sources) == ["a.py:_B", "a.py:_C", "a.py:_K"]


def _collector_switches(sources: dict[str, str]) -> list[str]:
    """module:function for each top-level function that turns the cyclic
    garbage collector off or on, by gc.disable / gc.enable or by importing
    either name from gc; module:<module> where that happens outside any."""
    found = set()
    for module, text in sources.items():
        tree = ast.parse(text)
        owners = [(node.name, node) for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        inside = {id(n): name for name, node in owners for n in ast.walk(node)}
        for n in ast.walk(tree):
            if (isinstance(n, ast.Attribute) and n.attr in ("disable", "enable")
                    and isinstance(n.value, ast.Name) and n.value.id == "gc") or (
                    isinstance(n, ast.ImportFrom) and n.module == "gc"
                    and {a.name for a in n.names} & {"disable", "enable"}):
                found.add(f"{module}:{inside.get(id(n), '<module>')}")
    return sorted(found)


def test_only_pause_gc_switches_the_collector():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _collector_switches(sources) == ["graph_core.py:pause_gc"]


def test_the_collector_check_finds_every_switch():
    sources = {"a.py": ("import gc\n"
                        "def f():\n"
                        "    gc.disable()\n"
                        "def g():\n"
                        "    return gc.isenabled()\n"
                        "gc.enable()\n"),
               "b.py": ("def h():\n"
                        "    from gc import enable\n"
                        "    enable()\n")}
    assert _collector_switches(sources) == ["a.py:<module>", "a.py:f", "b.py:h"]


def _unraised_error_classes(sources: dict[str, str]) -> list[str]:
    """Each error class errors.py defines, other than the base UdgcutError,
    that no raise statement in the sources names."""
    defined = [node.name for node in ast.parse(sources["errors.py"]).body
               if isinstance(node, ast.ClassDef) and node.name != "UdgcutError"]
    raised = set()
    for text in sources.values():
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Raise) and n.exc is not None:
                exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return [name for name in defined if name not in raised]


def test_every_error_class_is_raised():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unraised_error_classes(sources) == []


def test_the_error_class_check_finds_unraised_classes():
    sources = {"errors.py": ("class UdgcutError(Exception): pass\n"
                             "class A(UdgcutError): pass\n"
                             "class B(A): pass\n"
                             "class C(A): pass\n"),
               "a.py": ("from .errors import A, B, C\n"
                        "def f():\n"
                        "    raise A('x')\n"
                        "def g():\n"
                        "    raise B\n"
                        "def h():\n"
                        "    return C('never raised')\n")}
    assert _unraised_error_classes(sources) == ["C"]
