"""The demos use only public names that exist, and the quick ones run clean."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Demos that write no files and finish in about a second.  The other two
# (gauss_legendre_convergence, qmc_vs_mc) write CSV/SVG into demos/ and
# take 4 s and 30 s.
QUICK = (
    "derivative_bounds",
    "eigenvalue_solver_basics",
    "falling_factorial_identities",
    "gevrey_classification",
)


def _package_imports(path):
    """(module, name) for every name the demo imports from gevrey_evp."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("gevrey_evp"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gevrey_evp"):
                    yield alias.name, None


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    names = list(_package_imports(path))
    assert names, f"{path.name} imports nothing from gevrey_evp"
    for module, name in names:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module} has no {name!r}"


@pytest.mark.parametrize("stem", QUICK)
def test_quick_demo_runs(stem, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{stem}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert not any(tmp_path.iterdir()), "a quick demo wrote files"
