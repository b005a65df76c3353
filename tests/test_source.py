"""Source hygiene: every name a module of the package imports is used in it."""

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
