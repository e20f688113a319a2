"""Every module of the package reads each name it imports at top level.

A stand-in for a linter's unused-import rule (F401) that needs nothing
beyond ``ast``.  ``__init__.py`` re-exports by design and is skipped; a
line marked ``# noqa: F401`` is exempt, for a deliberate re-export.
"""
import ast
import os
import subprocess
import sys
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


def test_direct_run_does_not_import_scipy_special():
    # scipy.special serves only the occurrence probabilities and weighs
    # about 3.6 MB of resident memory, so an i.i.d. run goes without it.
    code = ("import sys\n"
            "from surfmatch import ExperimentConfig, run_direct\n"
            "run_direct(ExperimentConfig(distance=3, p=0.01, shots_direct=2000))\n"
            "assert 'scipy.special' not in sys.modules\n"
            "from surfmatch import occurrence_probability\n"
            "occurrence_probability(1, 10, 0.1)\n"
            "assert 'scipy.special' in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(SRC.parent)})


def test_build_and_runs_do_not_import_scipy_sparse():
    # The path table is built from the lattice's product structure, so no
    # run loads scipy.sparse or its graph routines.
    code = ("import sys\n"
            "from surfmatch import ExperimentConfig, run_direct, run_rare_event\n"
            "cfg = ExperimentConfig(distance=5, p=1e-3, shots_direct=2000,\n"
            "                       shots_per_k=20, k_max=4)\n"
            "graph, table = cfg.build()\n"
            "run_direct(cfg, graph, table)\n"
            "run_rare_event(cfg, graph, table)\n"
            "assert 'scipy.sparse' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(SRC.parent)})


def test_exports_resolve_and_cover_the_imports():
    # Every name in __all__ resolves, once, and every public name that
    # __init__.py imports is listed, so a removed class cannot leave a
    # dangling export and a new one cannot go unlisted.
    import surfmatch

    exported = surfmatch.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(surfmatch, n)] == []
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    assert sorted(n for n in imported if not n.startswith("_")) == sorted(exported)
