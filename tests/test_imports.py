"""Every name imported under src/ and tests/ is used in its file, every
name the package exports resolves, nothing under src/ integrates in time,
and importing the package does not load the slow-to-import scipy
subpackages."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

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


def _unresolved_exports(module: ModuleType):
    """Names in the module's __all__ that it does not define."""
    return [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)]


def test_the_scan_sees_an_unresolved_export():
    module = ModuleType("m")
    module.__all__ = ["here", "gone"]
    module.here = 1
    assert _unresolved_exports(module) == ["gone"]


@pytest.mark.parametrize("name", ["cascadia"] + [
    f"cascadia.{p.stem}" for p in SRC if p.name != "__init__.py"])
def test_every_export_resolves(name):
    assert _unresolved_exports(importlib.import_module(name)) == []


def _dotted_names(source: str):
    """(line, dotted names) of every import, name and attribute."""
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
        yield node.lineno, names


def _time_integration(source: str):
    """Lines that import scipy.integrate or name solve_ivp."""
    return sorted({line for line, names in _dotted_names(source)
                   if any(n.startswith("scipy.integrate")
                          or n.split(".")[-1] == "solve_ivp" for n in names)})


def test_the_scan_sees_time_integration():
    assert _time_integration("from scipy.integrate import quad\n") == [1]
    assert _time_integration("from scipy import integrate\n") == [1]
    assert _time_integration("import scipy\nscipy.integrate.quad\n") == [2]
    assert _time_integration("y = solve_ivp(f, t, y0)\n") == [1]
    assert _time_integration("from scipy.optimize import root\n") == []


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_time_integration_in_the_package(path):
    assert _time_integration(path.read_text(encoding="utf-8")) == []


# scipy subpackages that cost most of a cold `import cascadia` (0.7 s of
# 1.2 s for scipy.signal, which pulls in the other three)
SLOW_IMPORTS = ("scipy.signal", "scipy.stats", "scipy.optimize",
                "scipy.interpolate")


def _slow_imports(source: str):
    """Lines that name one of SLOW_IMPORTS."""
    return sorted({line for line, names in _dotted_names(source)
                   if any(n == mod or n.startswith(mod + ".")
                          for n in names for mod in SLOW_IMPORTS)})


def test_the_scan_sees_slow_imports():
    assert _slow_imports("from scipy.signal import lfilter\n") == [1]
    assert _slow_imports("from scipy import stats\n") == [1]
    assert _slow_imports("import scipy.optimize as opt\n") == [1]
    assert _slow_imports("import scipy\nscipy.interpolate.interp1d\n") == [2]
    assert _slow_imports("def f():\n    from scipy.optimize import root\n") \
        == [2]
    assert _slow_imports("from scipy.linalg.blas import ztbsv\n") == []
    assert _slow_imports("from scipy import signals\n") == []


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_slow_imports_in_the_package(path):
    assert _slow_imports(path.read_text(encoding="utf-8")) == []


COLD_RUN = """
import json, sys
import cascadia, cascadia.cli
from cascadia import (DopplerParams, ModelParams, build_chain, doppler_profile,
                      exact_steady_state, mean_polarization, run_ensemble,
                      solve_ce2, solve_steady_state)
p = ModelParams.from_beta(beta=0.1, s0=2.0, n_emitters=3, eta=0.1)
for model in ("UWM", "EAM", "DM"):
    solve_steady_state(model, p)
solve_steady_state("BWM", p, build_chain(p))
solve_ce2(p); exact_steady_state("UWM", p); run_ensemble(p, M=2, jobs=1)
doppler_profile(DopplerParams(xi_delta=1.0, s0=2.0, d_max=5.0))
mean_polarization(2.0, 4.0)
cascadia.cli.build_parser()
print(json.dumps(sorted(sys.modules)))
"""


def test_a_cold_process_loads_no_slow_imports():
    # a fresh interpreter: one solve in every layer, each mean-field model
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", COLD_RUN], env=env,
                         capture_output=True, text=True, check=True)
    loaded = json.loads(run.stdout)
    assert "cascadia.meanfield" in loaded
    assert [m for m in SLOW_IMPORTS if m in loaded] == []
