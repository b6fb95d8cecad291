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

__all__ = ["GaussRule", "gauss_legendre", "axis_eigenvalue_map", "gl_study"]

_MAX_POINTS = 512


@dataclass(frozen=True)
class GaussRule:
    """Nodes (strictly increasing, symmetric) and positive weights."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))


def _legendre_table(K: int, x: np.ndarray) -> np.ndarray:
    """P_0..P_K at the points x by the three-term recurrence, shape (K+1, len(x))."""
    table = np.zeros((K + 1, x.size))
    table[0] = 1.0
    if K >= 1:
        table[1] = x
    for k in range(1, K):
        table[k + 1] = ((2 * k + 1) * x * table[k] - k * table[k - 1]) / (k + 1)
    return table


def gauss_legendre(n: int) -> GaussRule:
    """n-point Gauss-Legendre rule; exact for polynomials of degree 2n-1."""
    if not 1 <= n <= _MAX_POINTS:
        raise ValueError(f"point count must lie in [1, {_MAX_POINTS}], got {n}")

    def value_derivative(x):
        """(P_n(x), P_n'(x)), the derivative from P_n and P_{n-1}."""
        table = _legendre_table(n, x)
        p, p_prev = table[n], table[n - 1]
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    nodes = np.zeros(n)
    weights = np.zeros(n)
    half = n // 2
    if n % 2 == 1:
        _, dp0 = value_derivative(np.array([0.0]))
        nodes[half] = 0.0
        weights[half] = 2.0 / dp0[0] ** 2
    if half:
        i = np.arange(1, half + 1)
        x = np.cos(np.pi * (i - 0.25) / (n + 0.5))  # positive roots, descending
        for _ in range(100):
            p, dp = value_derivative(x)
            dx = p / dp
            x = x - dx
            if np.max(np.abs(dx)) <= 1e-15:
                break
        p, dp = value_derivative(x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        nodes[n - half :] = x[::-1]
        nodes[:half] = -x
        weights[n - half :] = w[::-1]
        weights[:half] = w
    return GaussRule(n, nodes, weights)


def axis_eigenvalue_map(
    model: CoefficientModel, m: int, tol: float
) -> Callable[[float], float]:
    """t -> lambda1(y) along the first parameter, y = t * param_halfwidth.

    The rescaling takes t in [-1, 1] onto the model's parameter interval.
    Each call assembles the system on the half grid of the mesh of parameter
    m (``Assembler.symmetric_system``) and solves it to relative tolerance
    tol.
    """
    asm = Assembler(build_mesh(m), model)
    half = model.param_halfwidth

    def f(t: float) -> float:
        return smallest_eigenpair(asm.symmetric_system([t * half]), tol=tol).value

    return f


def gl_study(
    model: CoefficientModel,
    m: int,
    n_list: Sequence[int],
    n_star: int,
    tol: float = 1e-14,
) -> list[tuple[int, float]]:
    """Relative Gauss-Legendre error of the parameter integral of lambda1.

    For each n in ``n_list`` returns (n, |Q_nstar - Q_n| / |Q_nstar|) where
    Q_n applies the n-point rule to ``axis_eigenvalue_map(model, m, tol)``,
    the smallest FEM eigenvalue along the first parameter rescaled to
    [-1, 1].  Each distinct node is solved once (cached across rules), in
    rule order.
    """
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if max(n_list) >= n_star:
        raise ValueError(f"need max(n_list) = {max(n_list)} < n_star = {n_star}")

    f = axis_eigenvalue_map(model, m, tol)
    cache: dict[bytes, float] = {}
    rules = {n: gauss_legendre(n) for n in [*n_list, n_star]}
    for rule in rules.values():
        for x in rule.nodes:
            key = np.float64(x).tobytes()
            if key in cache:
                continue
            try:
                cache[key] = f(float(x))
            except EigenSolveError as exc:
                raise EigenSolveError(
                    f"eigensolve failed at node t={x}: {exc}", last=exc.last
                ) from exc

    def apply(rule: GaussRule) -> float:
        vals = np.array([cache[np.float64(x).tobytes()] for x in rule.nodes])
        return rule.integrate(vals)

    q_star = apply(rules[n_star])
    return [(n, abs(q_star - apply(rules[n])) / abs(q_star)) for n in n_list]
