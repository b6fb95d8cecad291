"""Wrappers round the program's public functions, as its modules see them.

Untraced, a probe keeps only what the checks need: the value and iteration
count of every eigensolve, and the systems of a few sampled solves.  Traced,
it also records a span round every call into a layer: its name, the study it
belongs to, its start, its end and its parent span.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import Counter

from gevrey_evp import coefficients, eigensolver, fem, qmc, quad1d

# Modules whose own name for the lambda1 solver is wrapped, and the span name
# of a call through each: a study calls it through exactly one of them.
_SOLVER_SPANS = {
    mod: f"{mod.__name__.rsplit('.', 1)[1]}.smallest_eigenpair"
    for mod in (eigensolver, qmc, quad1d)
}


class Probe:
    def __init__(self, traced: bool, keep: frozenset[int]):
        self.traced = traced
        self.keep = keep  # lambda1 call indices (first study) whose systems are kept
        self.study = -1
        self.spans: list[list] = []  # [name, study, start_ns, end_ns, parent]
        self.first: list[list[tuple]] = []  # per study: (value, iterations) of lambda1
        self.second: list[list[tuple]] = []  # per study: (value, iterations) of lambda2
        self.kept: dict[int, dict] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod, name in _SOLVER_SPANS.items():
            self._patch(mod, "smallest_eigenpair", self._eigen(name, self.first))
        self._patch(
            eigensolver, "second_eigenpair",
            self._eigen("eigensolver.second_eigenpair", self.second),
        )
        if self.traced:
            self._patch(coefficients.CoefficientModel, "a_cached",
                        self._timed("coefficients.a_cached"))
            self._patch(fem.Assembler, "__init__", self._timed("fem.Assembler"))
            self._patch(fem.Assembler, "system", self._timed("fem.Assembler.system"))
            for fn in ("cbc_construct", "qmc_estimate", "mc_estimate"):
                self._patch(qmc, fn, self._timed(f"qmc.{fn}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, make) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.study, time.perf_counter_ns(), 0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    def begin_study(self) -> None:
        self.study += 1
        self.first.append([])
        self.second.append([])
        if self.traced:
            self._open("bench.study")

    def end_study(self) -> None:
        if self.traced:
            self._close(self._stack[0])

    def _timed(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
            return wrapper
        return make

    def _eigen(self, name: str, sink: list):
        def make(fn):
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                idx = self._open(name) if self.traced else -1
                try:
                    pair = fn(*args, **kwargs)
                finally:
                    if self.traced:
                        self._close(idx)
                calls = sink[self.study]
                if sink is self.first and self.study == 0 and len(calls) in self.keep:
                    bound = signature.bind(*args, **kwargs)
                    self.kept[len(calls)] = {
                        "call": (fn, bound), "value": pair.value,
                        "iterations": pair.iterations, "span": idx,
                    }
                calls.append((pair.value, pair.iterations))
                return pair
            return wrapper
        return make

    # -- per-layer figures --------------------------------------------------

    def counts(self, study: int) -> dict[str, int]:
        """Calls and iterations of one study, by layer."""
        out = {
            "solves": len(self.first[study]),
            "iterations": sum(it for _, it in self.first[study]),
            "second_solves": len(self.second[study]),
            "second_iterations": sum(it for _, it in self.second[study]),
        }
        if self.traced:
            names = Counter()
            for name, st, _, _, parent in self.spans:
                if st != study:
                    continue
                names[name] += 1
                if name.endswith(".smallest_eigenpair"):
                    while parent >= 0 and self.spans[parent][0] != "bench.study":
                        outer = self.spans[parent][0]
                        if outer in ("qmc.qmc_estimate", "qmc.mc_estimate"):
                            names[outer + ".solves"] += 1
                            break
                        parent = self.spans[parent][4]
            out["qmc_solves"] = names["qmc.qmc_estimate.solves"]
            out["mc_solves"] = names["qmc.mc_estimate.solves"]
            out["nodes"] = names["quad1d.smallest_eigenpair"]
            out["cbc_calls"] = names["qmc.cbc_construct"]
        return out

    def fixed_split(self) -> tuple[float, float]:
        """Median time of a one-iteration call and of one further iteration, ms.

        Re-runs each kept lambda1 solve capped at max_iter=1, outside the
        study spans.  The capped call does the checks, the factorisation and
        one inner solve, then raises.  The iteration time is the rest of the
        kept call's study span spread over its remaining iterations.
        """
        fixed, per_iter = [], []
        for rec in self.kept.values():
            fn, bound = rec["call"]
            capped = bound.arguments | {"max_iter": 1}
            t0 = time.perf_counter_ns()
            try:
                fn(**capped)
            except eigensolver.EigenSolveError:
                pass  # the cap was reached, as intended
            t_fixed = (time.perf_counter_ns() - t0) / 1e6
            fixed.append(t_fixed)
            _, _, start, end, _ = self.spans[rec["span"]]
            if rec["iterations"] > 1:
                per_iter.append(((end - start) / 1e6 - t_fixed) / (rec["iterations"] - 1))
        return _median(fixed), _median(per_iter)

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) / 1e6 for n, _, start, end, _ in self.spans if n == name]

    def per_study_ms(self, name: str) -> list[float]:
        totals = [0.0] * (self.study + 1)
        for n, st, start, end, _ in self.spans:
            if n == name:
                totals[st] += (end - start) / 1e6
        return totals


def _median(values) -> float:
    """Median, or 0 where the layer was not called on this workload."""
    return statistics.median(values) if values else 0.0


def layer_metrics(probe: Probe) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, as name -> (value, unit)."""
    counts = probe.counts(0)
    fixed_ms, iter_ms = probe.fixed_split()
    solve_ms = [d for name in _SOLVER_SPANS.values() for d in probe.durations_ms(name)]
    return {
        "coefficients.field_ms": (_median(probe.durations_ms("coefficients.a_cached")), "ms"),
        "fem.system_ms": (_median(probe.durations_ms("fem.Assembler.system")), "ms"),
        "fem.assembler_ms": (_median(probe.durations_ms("fem.Assembler")), "ms"),
        "eigensolver.solves": (counts["solves"], "count"),
        "eigensolver.solve_ms": (_median(solve_ms), "ms"),
        "eigensolver.fixed_ms": (fixed_ms, "ms"),
        "eigensolver.iter_ms": (iter_ms, "ms"),
        "eigensolver.iterations": (counts["iterations"], "count"),
        "eigensolver.second_ms": (
            _median(probe.durations_ms("eigensolver.second_eigenpair")), "ms"),
        "eigensolver.second_iterations": (counts["second_iterations"], "count"),
        "qmc.qmc_solves": (counts["qmc_solves"], "count"),
        "qmc.mc_solves": (counts["mc_solves"], "count"),
        "qmc.cbc_s": (_median(probe.per_study_ms("qmc.cbc_construct")) / 1e3, "s"),
        "quad1d.nodes": (counts["nodes"], "count"),
        "trace.study_s": (_median(probe.per_study_ms("bench.study")) / 1e3, "s"),
    }
