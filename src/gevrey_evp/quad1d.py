"""Gauss-Legendre quadrature on [-1, 1] and the one-parameter eigenvalue
integration study.

Nodes are the Legendre roots found by Newton iteration from Chebyshev
initial guesses; only the nonnegative half is iterated and the rule is
mirrored, so node/weight symmetry is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coefficients import CoefficientModel
from .eigensolver import EigenSolveError, smallest_eigenpair
from .fem import Assembler, build_mesh
from .util import ordered_map

__all__ = ["GaussRule", "gauss_legendre", "gl_study"]

_MAX_POINTS = 512


@dataclass(frozen=True)
class GaussRule:
    """Nodes (strictly increasing, symmetric) and positive weights."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))


def _legendre_value_derivative(n: int, x: np.ndarray):
    """(P_n(x), P_n'(x)) by the three-term recurrence, vectorized in x."""
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev, np.zeros_like(x)
    p = x.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(n: int) -> GaussRule:
    """n-point Gauss-Legendre rule; exact for polynomials of degree 2n-1."""
    if not 1 <= n <= _MAX_POINTS:
        raise ValueError(f"point count must lie in [1, {_MAX_POINTS}], got {n}")
    nodes = np.zeros(n)
    weights = np.zeros(n)
    half = n // 2
    if n % 2 == 1:
        _, dp0 = _legendre_value_derivative(n, np.array([0.0]))
        nodes[half] = 0.0
        weights[half] = 2.0 / dp0[0] ** 2
    if half:
        i = np.arange(1, half + 1)
        x = np.cos(np.pi * (i - 0.25) / (n + 0.5))  # positive roots, descending
        for _ in range(100):
            p, dp = _legendre_value_derivative(n, x)
            dx = p / dp
            x = x - dx
            if np.max(np.abs(dx)) <= 1e-15:
                break
        p, dp = _legendre_value_derivative(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        nodes[n - half :] = x[::-1]
        nodes[:half] = -x
        weights[n - half :] = w[::-1]
        weights[:half] = w
    return GaussRule(n, nodes, weights)


def gl_study(
    model: CoefficientModel,
    m: int,
    n_list: Sequence[int],
    n_star: int,
    tol: float = 1e-14,
    eigenvalue_map: Callable[[float], float] | None = None,
) -> list[tuple[int, float]]:
    """Relative Gauss-Legendre error of the parameter integral of lambda1.

    For each n in ``n_list`` returns (n, |Q_nstar - Q_n| / |Q_nstar|) where
    Q_n applies the n-point rule to y -> lambda1(y) at mesh parameter m.
    Each distinct node is solved exactly once (cached across rules).
    ``eigenvalue_map`` substitutes the integrand (tests); by default the
    smallest FEM eigenvalue of the model is used.
    """
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if max(n_list) >= n_star:
        raise ValueError(f"need max(n_list) = {max(n_list)} < n_star = {n_star}")

    if eigenvalue_map is None:
        asm = Assembler(build_mesh(m), model)

        def eigenvalue_map(y: float) -> float:
            return smallest_eigenpair(asm.system([y]), tol=tol).value

    cache: dict[bytes, float] = {}
    rules = {n: gauss_legendre(n) for n in [*n_list, n_star]}
    new_nodes = []
    for rule in rules.values():
        for x in rule.nodes:
            key = np.float64(x).tobytes()
            if key not in cache:
                cache[key] = np.nan
                new_nodes.append((key, float(x)))

    def solve(item):
        key, x = item
        try:
            return eigenvalue_map(x)
        except EigenSolveError as exc:
            raise EigenSolveError(f"eigensolve failed at node y={x}: {exc}") from exc

    for (key, _), lam in zip(new_nodes, ordered_map(solve, new_nodes)):
        cache[key] = lam

    def apply(rule: GaussRule) -> float:
        vals = np.array([cache[np.float64(x).tobytes()] for x in rule.nodes])
        return rule.integrate(vals)

    q_star = apply(rules[n_star])
    return [(n, abs(q_star - apply(rules[n])) / abs(q_star)) for n in n_list]
