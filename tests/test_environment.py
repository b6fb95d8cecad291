"""The import surface, and what only a fresh interpreter shows: the modules
an import loads, and CSV bytes that do not depend on the BLAS thread count."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import gevrey_evp

ROOT = Path(__file__).resolve().parents[1]


def _run(code, tmp_path, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exports_resolve():
    # every name in a module's __all__ exists, and the package re-exports
    # only such names
    exported = set()
    for info in pkgutil.iter_modules(gevrey_evp.__path__):
        mod = importlib.import_module(f"gevrey_evp.{info.name}")
        names = getattr(mod, "__all__", ())
        assert not [n for n in names if not hasattr(mod, n)], info.name
        exported.update(names)
    public = {name for name, value in vars(gevrey_evp).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public and public <= exported, sorted(public - exported)


def test_import_loads_no_heavy_scipy_modules(tmp_path):
    # each adds start-up time to every command; the solver needs neither
    out = _run("import sys, gevrey_evp; "
               "print(sorted(m for m in sys.modules "
               "if m.startswith(('scipy.fft', 'scipy.sparse.linalg'))))", tmp_path)
    assert out.strip() == "[]"


def test_csv_bytes_independent_of_blas_threads(tmp_path):
    # m = 128 runs the preconditioner's GEMMs at a size where threaded BLAS
    # would split them
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"gl_{threads}.csv"
        _run("from gevrey_evp.cli import main; raise SystemExit(main(["
             "'gl-study', '--model', 'gl-analytic', '--m', '128', '--n-min', '2', "
             f"'--n-max', '3', '--n-star', '4', '--out', {str(out)!r}]))",
             tmp_path, OPENBLAS_NUM_THREADS=threads)
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_bench_probe_installs(tmp_path):
    # the benchmark wraps the solvers and studies by name, re-runs kept lambda1
    # calls capped at one iteration and re-solves their `sys` with scipy; a
    # rename or a system it cannot read fails here, not in a bench run.  It
    # keeps a whole-grid solve and a half-grid one, as the lambda1 maps solve.
    out = _run(f"""
import importlib.util, inspect
from gevrey_evp import coefficients, eigensolver, fem, qmc, quad1d

bench = {str(ROOT / "bench")!r}

def load(name):
    spec = importlib.util.spec_from_file_location(name, f"{{bench}}/{{name}}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

probe, workloads = load("probe"), load("workloads")
first = next(iter(inspect.signature(eigensolver.smallest_eigenpair).parameters))
assert first == "sys", first
owners = (eigensolver, qmc, quad1d, fem.Assembler, coefficients.CoefficientModel)
before = [dict(vars(o)) for o in owners]
for traced in (False, True):
    p = probe.Probe(traced, frozenset())
    p.install()
    p.uninstall()
    assert [dict(vars(o)) for o in owners] == before
p = probe.Probe(True, frozenset({{0, 1}}))
p.install()
p.begin_study()
asm = fem.Assembler(fem.build_mesh(8), coefficients.model_by_name("gl-analytic"))
eigensolver.smallest_eigenpair(asm.system([0.3]))
quad1d.smallest_eigenpair(asm.symmetric_system([0.3]))
p.end_study()
metrics = probe.layer_metrics(p)
p.uninstall()
assert metrics["eigensolver.solves"] == (2, "count"), metrics
assert sorted(p.kept) == [0, 1], sorted(p.kept)
assert metrics["eigensolver.fixed_ms"][0] > 0.0, metrics
assert workloads.check_kept(p) == [], workloads.check_kept(p)
print("ok")
""", tmp_path)
    assert out.strip() == "ok"
