"""Every name imported under src/ and tests/ is used in its file, and
nothing under src/ integrates in time."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")  # __init__ imports to re-export
SRC = sorted((ROOT / "src").rglob("*.py"))


def _unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_the_scan_sees_an_unused_import():
    assert _unused_imports("import os\nimport numpy as np\nnp.pi\n") == [
        (1, "os")]
    assert _unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _time_integration(source: str):
    """Lines that import scipy.integrate or name solve_ivp."""
    hits = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [ast.unparse(node)]
        else:
            continue
        if any(n.startswith("scipy.integrate")
               or n.split(".")[-1] == "solve_ivp" for n in names):
            hits.add(node.lineno)
    return sorted(hits)


def test_the_scan_sees_time_integration():
    assert _time_integration("from scipy.integrate import quad\n") == [1]
    assert _time_integration("from scipy import integrate\n") == [1]
    assert _time_integration("import scipy\nscipy.integrate.quad\n") == [2]
    assert _time_integration("y = solve_ivp(f, t, y0)\n") == [1]
    assert _time_integration("from scipy.optimize import root\n") == []


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_time_integration_in_the_package(path):
    assert _time_integration(path.read_text(encoding="utf-8")) == []
