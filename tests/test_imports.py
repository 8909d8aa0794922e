"""Every name imported under src/ and tests/ is used in its file."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")  # __init__ imports to re-export


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
