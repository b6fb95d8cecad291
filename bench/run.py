"""Benchmark of the lambda1 map: one workload per call, in processes of its own.

    env -u GEVREY_EVP_THREADS OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \\
        python3 bench/run.py --workload qmc-m32 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Untraced, the run starts three set-up processes and one
measured process (see worker.py) and prints the end-to-end metrics: the
median study call time, the median set-up time and the peak resident set of
the measured process.  Traced, it starts the measured process alone with the
probe's spans on and prints the per-layer metrics; the spans go to
``bench/out/``.  The next to last line of output records the environment; the
last is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of workloads.WORKLOADS; this process does not import the program
WORKLOADS = ("qmc-m32", "gl-m128", "gap-m32", "cbc-s100")
SETUP_SAMPLES = 4  # set-up times per run, the measured process's included
DEADLINE_S = 170.0  # the whole run, every process it starts included
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GEVREY_EVP_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gevrey_evp" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.trace and "GEVREY_EVP_THREADS" in os.environ:
        # spans find their parent on one call stack, so the solves must be serial
        print("the traced run needs GEVREY_EVP_THREADS unset", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    worker_args = [args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(start_worker(worker_args + ["setup"], deadline)[0])
    setup_s, run = start_worker(worker_args + ["study"], deadline)
    setups.append(setup_s)

    for problem in run["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = run["layers"]
    else:
        metrics = {
            "study_s": (statistics.median(run["study_s"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
    print(json.dumps({"env": environment(), "study_calls": len(run["study_s"])}))
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def start_worker(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py to its end; return its set-up time and its report."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            capture_output=True, text=True, cwd=ROOT,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise SystemExit(f"worker {' '.join(argv)} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(argv)} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["ready"] - started, report


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        **{var: os.environ.get(var) for var in ENV_VARS},
    }


if __name__ == "__main__":
    sys.exit(main())
