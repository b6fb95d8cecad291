"""Parametric diffusion/reaction/weight fields and their certified constants.

The eigenvalue problem is  -div(a grad u) + b u = lambda c u  on the unit
square with homogeneous Dirichlet conditions, where a depends on a parameter
vector y and the reaction b and the weight c are constants.  Four built-in
model fields are provided (two with a single parameter on [-1, 1], two with
up to 100 parameters on [-1/2, 1/2]), plus constant and user-supplied
sine-series fields.

Constants derived from the coefficient ranges (contrasts, eigenvalue and
eigenfunction bounds, and the growth factors sigma, rho for parameter
derivatives) follow the convention in which the diffusion field is scaled
by the first Dirichlet-Laplace eigenvalue 2*pi^2 of the unit square; the
resulting lambda1_bar genuinely bounds the computed eigenvalues.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .combinatorics import Multiindex, ff_half

__all__ = [
    "CHI1",
    "zeta",
    "Bounds",
    "CoefficientModel",
    "model_by_name",
    "resolve_model",
    "load_custom_model",
    "BoundConstants",
    "bound_constants",
    "derivative_bound",
    "MODEL_NAMES",
]

# Smallest Dirichlet-Laplace eigenvalue of the unit square.
CHI1 = 2.0 * math.pi**2

# Euler-Maclaurin correction weights B_{2i}/(2i)! for i = 1..4.
_EM_WEIGHTS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)


@functools.lru_cache(maxsize=None)
def zeta(s: float) -> float:
    """Riemann zeta for s > 1, via direct series plus Euler-Maclaurin tail.

    Relative accuracy about 1e-15 for all s > 1; raises for s <= 1.
    """
    s = float(s)
    if s <= 1.0:
        raise ValueError(f"zeta requires s > 1, got {s}")
    n = 64
    total = sum(k**-s for k in range(1, n))
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n**-s
    rising = s  # the product s(s+1)...(s+2i-2) for the i-th correction
    power = float(n) ** (-s - 1.0)
    for i, w in enumerate(_EM_WEIGHTS, start=1):
        tail += w * rising * power
        rising *= (s + 2 * i - 1) * (s + 2 * i)
        power /= n * n
    return total + tail


@dataclass(frozen=True)
class Bounds:
    """Certified closed-form ranges of the three coefficient fields."""

    a_lo: float
    a_hi: float
    b_lo: float
    b_hi: float
    c_lo: float
    c_hi: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.a_lo > 0 and self.c_lo > 0 and self.b_lo >= 0):
            raise ValueError("need a_lo > 0, c_lo > 0, b_lo >= 0")
        if self.a_hi < self.a_lo or self.b_hi < self.b_lo or self.c_hi < self.c_lo:
            raise ValueError("upper bounds must dominate lower bounds")


# Each built-in kind: (dim, parameter half-width, Gevrey order, Bounds).
_BUILTIN = {
    "gl-analytic": (1, 1.0, 1.0, Bounds(1.0, 3.0, 0.0, 0.0, 1.0, 1.0)),
    "gl-gevrey3": (1, 1.0, 3.0, Bounds(
        1.0, 1.0 + 2.0 * math.exp(-1.0 / math.sqrt(2.0)), 0.0, 0.0, 1.0, 1.0)),
    "qmc-analytic": (100, 0.5, 1.0, Bounds(
        2.0 + 2.0 * math.exp(-1.5 * zeta(5.0)), 2.0 + 2.0 * math.exp(-0.5 * zeta(5.0)),
        0.0, 0.0, 1.0, 1.0)),
    "qmc-gevrey2": (100, 0.5, 2.0, Bounds(
        3.0 - math.exp(-1.0), 3.0 + math.exp(-1.0), 0.0, 0.0, 1.0, 1.0)),
}


class CoefficientModel:
    """One parametric diffusion field a with certified bounds, and the numbers b, c.

    ``kind`` is one of gl-analytic, gl-gevrey3, qmc-analytic, qmc-gevrey2,
    constant, custom.  The gl kinds take a single parameter in [-1, 1]; the
    qmc kinds take up to 100 parameters in [-1/2, 1/2] (missing trailing
    components are treated as zero).  The custom kind is 2 plus a sine
    series with the ``indices`` and ``amplitudes`` params, constant with
    ``a``, ``b``, ``c``; other params raise ``ValueError``.  The reaction
    ``b`` and the mass weight ``c`` are 0 and 1 but in the constant kind.
    Instances are immutable and safe to share; evaluation methods are pure.
    """

    def __init__(self, kind: str, params: dict | None = None):
        self.kind, self.params = kind, {}
        self.b, self.c = 0.0, 1.0
        given = dict(params or {})
        if kind in _BUILTIN:
            self.dim, self.param_halfwidth, self.gevrey_order, self.bounds = _BUILTIN[kind]
        elif kind == "constant":
            a = float(given.get("a", 1.0))
            self.b, self.c = float(given.get("b", self.b)), float(given.get("c", self.c))
            self.params = {"a": a, "b": self.b, "c": self.c}
            self.dim, self.param_halfwidth, self.gevrey_order = 1, 1.0, 1.0
            self.bounds = Bounds(a, a, self.b, self.b, self.c, self.c)
        elif kind == "custom":
            idx = np.asarray(given.get("indices", ()), dtype=int)
            amp = np.asarray(given.get("amplitudes", ()), dtype=float)
            if idx.ndim != 1 or idx.shape != amp.shape or idx.size == 0:
                raise ValueError("custom model needs matching 1-d 'indices' and 'amplitudes'")
            if np.any(idx < 1):
                raise ValueError("custom series indices must be >= 1")
            self.params = {"indices": idx, "amplitudes": amp}
            self.dim, self.param_halfwidth, self.gevrey_order = int(idx.size), 0.5, 1.0
            spread = 0.5 * float(np.sum(np.abs(amp)))
            if 2.0 - spread <= 0:
                raise ValueError("custom series is not uniformly positive")
            self.bounds = Bounds(2.0 - spread, 2.0 + spread, 0.0, 0.0, 1.0, 1.0)
        else:
            raise ValueError(f"unknown coefficient model kind {kind!r}")
        unknown = ", ".join(map(repr, sorted(set(given) - set(self.params))))
        if unknown:
            raise ValueError(f"the {kind} model takes no parameter {unknown}")

    # -- parameter handling -------------------------------------------------

    def pad_y(self, y) -> np.ndarray:
        """Validate y against the parameter box and zero-pad to ``dim``."""
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        if arr.ndim != 1:
            raise ValueError("parameter vector must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"parameter components must be finite, got {arr.tolist()}")
        if self.kind == "constant":
            return arr  # the field ignores parameters; any length is fine
        if arr.size > self.dim:
            raise ValueError(f"model takes at most {self.dim} parameters, got {arr.size}")
        hw = self.param_halfwidth
        if np.any(np.abs(arr) > hw + 1e-15):
            raise ValueError(f"parameter components must lie in [-{hw}, {hw}]")
        if self.kind == "gl-gevrey3" and arr[0] <= -1.0:
            raise ValueError("gl-gevrey3 is undefined at y = -1 (zero radicand)")
        if arr.size < self.dim:
            arr = np.concatenate([arr, np.zeros(self.dim - arr.size)])
        return arr

    # -- field evaluation ----------------------------------------------------

    def precompute(self, x1, x2) -> dict:
        """Cache the y-independent part of the diffusion field at fixed points.

        For the series kinds: U1 = sin(pi u1 j) and U2 = sin(pi u2 j) on the
        distinct values u1, u2 of x1 and x2 (no grid is assumed), and the flat
        index of every point in the u1-by-u2 grid (see ``_series``).
        """
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        cache: dict = {"shape": x1.shape}
        if self.kind in ("qmc-analytic", "qmc-gevrey2", "custom"):
            if self.kind == "custom":
                idx, cache["amp"] = self.params["indices"], self.params["amplitudes"]
            else:
                idx = np.arange(1, self.dim + 1)
                cache["amp"] = idx.astype(float) ** -5.0
            u1, i1 = np.unique(x1.ravel(), return_inverse=True)
            u2, i2 = np.unique(x2.ravel(), return_inverse=True)
            cache["U1"], cache["U2"] = (np.sin(np.outer(u, idx * math.pi)) for u in (u1, u2))
            cache["flat"] = i1 * u2.size + i2
        elif self.kind in ("gl-analytic", "gl-gevrey3"):
            cache["xsum"] = x1 + x2
        return cache

    def a_cached(self, cache: dict, y) -> np.ndarray:
        """Diffusion field at the precomputed points for parameter vector y."""
        yv = self.pad_y(y)
        kind = self.kind
        if kind == "gl-analytic":
            return 2.0 + np.sin(math.pi * (cache["xsum"] + yv[0]))
        if kind == "gl-gevrey3":
            return 1.0 + cache["xsum"] * math.exp(-1.0 / math.sqrt(yv[0] + 1.0))
        if kind == "qmc-analytic":
            return 2.0 + 2.0 * np.exp(-zeta(5.0) + _series(cache, yv))
        if kind == "qmc-gevrey2":
            return 3.0 + _series(cache, _gevrey2_transform(yv)) / zeta(5.0)
        if kind == "custom":
            return 2.0 + _series(cache, yv)
        if kind == "constant":
            return np.full(cache["shape"], self.params["a"])
        raise AssertionError(kind)

    def __repr__(self) -> str:
        return f"CoefficientModel({self.kind!r}, dim={self.dim})"


def _series(cache: dict, t: np.ndarray) -> np.ndarray:
    """sum_j amp_j t_j sin(j pi x1) sin(j pi x2) at the cached points, gathered
    from G = U1 diag(amp t) U2^T over the terms up to the last non-zero one."""
    coef = cache["amp"] * t
    k = np.flatnonzero(coef)[-1] + 1 if coef.any() else 0
    G = (cache["U1"][:, :k] * coef[:k]) @ cache["U2"][:, :k].T
    return G.ravel()[cache["flat"]].reshape(cache["shape"])


def _gevrey2_transform(y: np.ndarray) -> np.ndarray:
    """Componentwise exp(-1/(y + 1/2)) with the limit value 0 at y = -1/2."""
    shifted = y + 0.5
    out = np.zeros_like(shifted)
    mask = shifted > 0.0
    out[mask] = np.exp(-1.0 / shifted[mask])
    return out


MODEL_NAMES = (*_BUILTIN, "constant")


def model_by_name(name: str, **params) -> CoefficientModel:
    """Instantiate a built-in model by its configuration name."""
    if name not in MODEL_NAMES:
        raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
    return CoefficientModel(name, params)


def resolve_model(spec: str) -> CoefficientModel:
    """Model from a config spec: a built-in name or 'custom:<table path>'."""
    if spec.startswith("custom:"):
        return load_custom_model(spec.split(":", 1)[1])
    return model_by_name(spec)


def load_custom_model(path) -> CoefficientModel:
    """Read a sine-series coefficient table: one 'index amplitude' line per term.

    The diffusion field is 2 plus the series.  Lines may be comma- or
    whitespace-separated; '#' starts a comment; a bad line raises
    ``ValueError`` naming ``path:line``, and a table without a term
    ``ValueError`` naming ``path``.
    """
    indices, amps = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                index, amp = line.replace(",", " ").split()
                index, amp = int(index), float(amp)
                if index < 1 or not math.isfinite(amp):
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'index amplitude', an integer "
                                 f">= 1 and a finite number, got {line!r}") from None
            indices.append(index)
            amps.append(amp)
    if not indices:
        raise ValueError(f"{path}: no 'index amplitude' lines, so the series has no terms")
    return CoefficientModel("custom", {"indices": indices, "amplitudes": amps})


@dataclass(frozen=True)
class BoundConstants:
    """Explicit constants controlling the eigenpair and its derivatives.

    All fields are derived from the five coefficient bars and the relative
    spectral gap mu via closed formulas: the contrasts K_a = (a_bar+b_bar)/
    (2 a_low) and K_c = c_bar/(2 c_low), the eigenvalue bound lambda1_bar =
    (a_bar+b_bar)/(2 c_low), the eigenfunction bound u1_bar =
    sqrt(lambda1_bar/a_low), and the growth factors

        sigma1 = 2 K_a (1 + K_c),          sigma = sigma1/mu + K_a K_c,
        rho1   = 3 sigma1 + 16 sigma K_a K_c,
        rho    = rho1/mu + (3 + 8 sigma) K_a K_c.
    """

    a_bar: float
    b_bar: float
    c_bar: float
    a_low: float
    c_low: float
    mu: float
    K_a: float
    K_c: float
    lambda1_bar: float
    u1_bar: float
    sigma1: float
    sigma: float
    rho1: float
    rho: float

    @staticmethod
    def from_bars(
        a_bar: float,
        b_bar: float,
        c_bar: float,
        a_low: float,
        c_low: float,
        mu: float,
    ) -> "BoundConstants":
        if not 0.0 < mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {mu}")
        if a_low <= 0 or c_low <= 0:
            raise ValueError("lower bounds must be positive")
        K_a = (a_bar + b_bar) / (2.0 * a_low)
        K_c = c_bar / (2.0 * c_low)
        lambda1_bar = (a_bar + b_bar) / (2.0 * c_low)
        u1_bar = math.sqrt(lambda1_bar / a_low)
        sigma1 = 2.0 * K_a * (1.0 + K_c)
        sigma = sigma1 / mu + K_a * K_c
        rho1 = 3.0 * sigma1 + 16.0 * sigma * K_a * K_c
        rho = rho1 / mu + (3.0 + 8.0 * sigma) * K_a * K_c
        return BoundConstants(
            a_bar, b_bar, c_bar, a_low, c_low, mu,
            K_a, K_c, lambda1_bar, u1_bar, sigma1, sigma, rho1, rho,
        )


def bound_constants(model: CoefficientModel, mu: float) -> BoundConstants:
    """Derive BoundConstants from a model's certified coefficient ranges.

    The diffusion bars are scaled by CHI1 (a_bar = 2 CHI1 sup a, a_low =
    CHI1 inf a) so that lambda1_bar bounds the actual eigenvalues of the
    unscaled weak form.  mu is the empirical relative spectral gap, an
    input because it is not known in closed form.
    """
    b = model.bounds
    return BoundConstants.from_bars(
        a_bar=2.0 * CHI1 * b.a_hi,
        b_bar=2.0 * b.b_hi,
        c_bar=2.0 * b.c_hi,
        a_low=CHI1 * b.a_lo,
        c_low=b.c_lo,
        mu=mu,
    )


def derivative_bound(
    consts: BoundConstants,
    nu: Multiindex,
    delta: float,
    R: Mapping[int, float] | Sequence[float],
) -> tuple[float, float]:
    """Theoretical bounds on |d^nu lambda1| and ||d^nu u1||.

    Both equal (prefactor) * sigma/rho * (rho/R)^nu * ff_half(|nu|) *
    (|nu|!)^(delta-1), with prefactor lambda1_bar for the eigenvalue and
    u1_bar for the eigenfunction.  R supplies the per-dimension radii for
    the support of nu (mapping keyed by dimension, or 1-based sequence).
    """
    order = nu.order()
    if order < 1:
        raise ValueError("derivative bound requires |nu| >= 1")
    if delta < 1.0:
        raise ValueError("delta must be >= 1")

    def radius(j: int) -> float:
        if isinstance(R, Mapping):
            rj = R[j]
        else:
            rj = R[j - 1]
        rj = float(rj)
        if rj <= 0:
            raise ValueError(f"R_{j} must be positive")
        return rj

    geom = 1.0
    for j in nu.support:
        geom *= (consts.rho / radius(j)) ** nu[j]
    common = (
        (consts.sigma / consts.rho)
        * geom
        * float(ff_half(order))
        * math.factorial(order) ** (delta - 1.0)
    )
    return consts.lambda1_bar * common, consts.u1_bar * common
