"""Empirical smoothness classification of parameter-to-eigenvalue maps.

High-order divided differences are numerically meaningless near solver
tolerance, so the Gevrey probe works in coefficient space instead: expand
the sampled map in Legendre polynomials and fit log|c_k| against k^(1/delta)
for a list of candidate orders delta.  Low-order derivatives are still
checked directly with central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .harness import _fit_line
from .quad1d import _legendre_table, gauss_legendre

__all__ = [
    "legendre_coeffs",
    "DecayFit",
    "classify_decay",
    "fd_derivative",
    "NOISE_FLOOR",
]

NOISE_FLOOR = 1e-13  # eigensolver tolerance 1e-14 times conditioning headroom


def legendre_coeffs(
    f: Callable[[float], float], K: int, quad_n: int
) -> np.ndarray:
    """Legendre coefficients c_0..c_K of a scalar map on [-1, 1].

    c_k = (2k+1)/2 * Q[f * P_k] with the quad_n-point Gauss-Legendre rule;
    quad_n must be at least 2K so the projection is alias-safe up to K.
    """
    if quad_n < 2 * K:
        raise ValueError(f"need quad_n >= 2K = {2 * K}, got {quad_n}")
    rule = gauss_legendre(quad_n)
    values = np.array([float(f(float(x))) for x in rule.nodes])
    table = _legendre_table(K, rule.nodes)
    k = np.arange(K + 1)
    return (2 * k + 1) / 2.0 * (table @ (rule.weights * values))


@dataclass(frozen=True)
class DecayFit:
    """Best-fitting coefficient decay law |c_k| ~ C exp(-r k^(1/delta))."""

    delta: float
    rate: float
    goodness: float
    candidates: dict[float, tuple[float, float]]  # delta -> (rate, r_squared)


def classify_decay(
    coeffs: Sequence[float],
    delta_candidates: Sequence[float] = (1.0, 1.5, 2.0, 3.0, 4.0),
) -> DecayFit:
    """Pick the delta whose decay law best fits the coefficient magnitudes.

    For each candidate delta, ordinary least squares of log|c_k| on
    k^(1/delta) over the k >= 1 coefficients above NOISE_FLOOR; the
    delta maximizing the coefficient of determination wins, ties broken
    toward smaller delta.  Fails if fewer than 8 coefficients are usable.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    k = np.arange(coeffs.size)
    keep = (k >= 1) & (np.abs(coeffs) > NOISE_FLOOR)
    if keep.sum() < 8:
        raise ValueError(
            f"only {int(keep.sum())} coefficients above the noise floor; need >= 8"
        )
    ks = k[keep].astype(float)
    logs = np.log(np.abs(coeffs[keep]))
    best = None
    fits: dict[float, tuple[float, float]] = {}
    for delta in sorted(float(d) for d in delta_candidates):
        if delta < 1.0:
            raise ValueError("delta candidates must be >= 1")
        slope, _, r2 = _fit_line(ks ** (1.0 / delta), logs)
        fits[delta] = (-slope, r2)
        if best is None or r2 > fits[best][1]:  # strict: ties stay with smaller delta
            best = delta
    rate, r2 = fits[best]
    return DecayFit(best, rate, r2, fits)


def fd_derivative(
    f: Callable[[float], float],
    y0: float,
    order: int,
    h: float,
    interval: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Central finite difference of the given derivative order at y0.

    Returns (value, consistency) where consistency is the Richardson
    step-halving estimate |d(h/2) - d(h)| / 3 of the truncation error.
    With ``interval`` given, all stencil points (including the halved step)
    must stay inside it.
    """
    if not 1 <= order <= 6:
        raise ValueError("derivative order must lie in 1..6")
    if h <= 0:
        raise ValueError("step h must be positive")

    def stencil(step: float) -> float:
        pts = [y0 + (j - order / 2.0) * step for j in range(order + 1)]
        if interval is not None:
            lo, hi = interval
            for p in pts:
                if not lo <= p <= hi:
                    raise ValueError(f"stencil point {p} leaves [{lo}, {hi}]")
        acc = 0.0
        for j, p in enumerate(pts):
            acc += (-1.0) ** (order - j) * math.comb(order, j) * f(p)
        return acc / step**order

    d_h = stencil(h)
    d_half = stencil(h / 2.0)
    return d_h, abs(d_half - d_h) / 3.0
