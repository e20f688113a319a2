"""Every module of the package reads each name it imports at top level.

A stand-in for a linter's unused-import rule (F401) that needs nothing
beyond ``ast``.  ``__init__.py`` re-exports by design and is skipped; a
line marked ``# noqa: F401`` is exempt, for a deliberate re-export.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "surfmatch"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind but the module never reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from typing import NamedTuple, Callable\n"
              "from .graph import check_real  # noqa: F401 (re-exported)\n"
              "def f(x: Callable) -> float:\n"
              "    return math.pi\n")
    assert unused_imports(source) == ["line 3: NamedTuple"]
    assert len(MODULES) >= 6
