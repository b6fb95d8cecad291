"""Run one workload in this process: set up, time study calls, check outputs.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE MODE

run.py starts this once per set-up sample and once per measured run.  With
MODE ``setup`` the process builds the workload's inputs and stops where its
first study call would start.  With MODE ``study`` it then makes whole study
calls until the next one would end after SECONDS, and checks the outputs.
Either way it prints one JSON object; ``ready`` is the CLOCK_MONOTONIC time
at which the first study call starts, so the parent can measure set-up from
the moment it started this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gevrey_evp  # noqa: E402  (needs the source tree on the path)

if not Path(gevrey_evp.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"gevrey_evp was imported from {gevrey_evp.__file__}, not from {ROOT / 'src'}")

from gevrey_evp.eigensolver import EigenSolveError  # noqa: E402
from probe import Probe, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# Calls per study whose number the make-up of each workload fixes.
COUNTED = ("solves", "second_solves", "qmc_solves", "mc_solves", "nodes", "cbc_calls")


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, mode = argv
    seed, seconds, traced = int(seed), float(seconds), trace == "1"
    work = WORKLOADS[name](seed)
    probe = Probe(traced, work.keep)
    probe.install()
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    results, study_s, errors = [], [], []
    start = time.perf_counter()
    while True:
        probe.begin_study()
        t0 = time.perf_counter()
        try:
            results.append(work.study())
        except EigenSolveError as exc:
            results.append(None)
            errors.append(f"study {len(results) - 1}: {exc}")
        dt = time.perf_counter() - t0
        probe.end_study()
        study_s.append(dt)
        if time.perf_counter() - start + dt > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = layer_metrics(probe) if traced else {}
    probe.uninstall()
    problems = check(work, probe, results)
    rounds = len(results)
    failed = sum(
        work.ops_per_round if r is None else work.failed_ops(r) for r in results
    )
    if traced:
        write_trace(probe, name, seed)
    print(json.dumps({
        "ready": ready,
        "attempted": rounds * work.ops_per_round,
        "failed": failed,
        "problems": problems + errors,
        "study_s": study_s,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
    }))
    return 0


def check(work, probe, results) -> list[str]:
    """The workload's checks, and that every study repeated the first."""
    done = [i for i, r in enumerate(results) if r is not None]
    if not done:
        return []
    first = done[0]
    # the workload's checks read what the probe kept from study 0
    problems = work.check(results[first], probe) if first == 0 else []
    expected = work.expected()
    want = {k: expected.get(k, 0) for k in COUNTED if k in probe.counts(first)}
    for i in done:
        got = probe.counts(i)
        if {k: got[k] for k in want} != want:
            problems.append(f"study {i} made calls {got}, its make-up implies {want}")
        # sorted: with GEVREY_EVP_THREADS set, solves finish in any order
        if got != probe.counts(first) or sorted(probe.first[i]) != sorted(probe.first[first]):
            problems.append(f"study {i} did not repeat the solves of study {first}")
        if not same(results[i], results[first]):
            problems.append(f"study {i} returned another result than study {first}")
    return problems


def same(a, b) -> bool:
    """Exact equality of study results made of dataclasses, arrays and numbers."""
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(
            same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return bool(np.array_equal(a, b))


def write_trace(probe, name: str, seed: int) -> None:
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    spans = [
        {"name": n, "study": st, "start_ns": s, "end_ns": e, "parent": p}
        for n, st, s, e, p in probe.spans
    ]
    (out / f"trace-{name}-seed{seed}.json").write_text(json.dumps(spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
