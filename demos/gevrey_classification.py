"""Classify the smoothness of parameter-to-eigenvalue maps empirically.

High-order finite differences drown in rounding noise, so the probe works
in coefficient space: expand y -> lambda1(y) in Legendre polynomials and
fit log|c_k| against k^(1/delta) for candidate orders delta.  Analytic
dependence shows up as a straight semilog line (delta = 1); slower,
stretched-exponential decay signals a Gevrey-class map.

Caveat shown below: for a map whose smoothness degenerates exactly at a
parameter-interval endpoint, coefficient decay measures (delta+1)/2 rather
than the derivative-growth order delta, because Legendre expansions resolve
endpoint behaviour on a square-root scale.
"""

import numpy as np

from gevrey_evp import (
    axis_eigenvalue_map,
    classify_decay,
    fd_derivative,
    legendre_coeffs,
    model_by_name,
)

MESH_M = 32
K = 20
TOL = 1e-14


for name in ("gl-analytic", "gl-gevrey3"):
    model = model_by_name(name)
    f = axis_eigenvalue_map(model, MESH_M, TOL)
    coeffs = legendre_coeffs(f, K, quad_n=64)
    fit = classify_decay(coeffs)
    print(f"{name}: classified delta = {fit.delta} "
          f"(rate {fit.rate:.3f}, goodness {fit.goodness:.4f})")
    for delta, (rate, r2) in sorted(fit.candidates.items()):
        print(f"    candidate delta {delta:>4}: rate {rate:7.3f}  r^2 {r2:.4f}")
    print("    |c_k|:", np.array2string(np.abs(coeffs), precision=2,
                                        max_line_width=100))

# synthetic sanity: planted decay laws are recovered cleanly
k = np.arange(25, dtype=float)
for delta in (1.0, 2.0, 3.0):
    fit = classify_decay(3.0 * np.exp(-1.2 * k ** (1.0 / delta)),
                         delta_candidates=(1.0, 2.0, 3.0))
    print(f"planted delta={delta}: recovered {fit.delta} "
          f"(goodness {fit.goodness:.6f})")

# low-order derivatives stay directly checkable by central differences
f = axis_eigenvalue_map(model_by_name("gl-analytic"), MESH_M, TOL)
val, consistency = fd_derivative(f, 0.0, order=1, h=1e-3, interval=(-1, 1))
print(f"\nd lambda1 / dy at y=0 (gl-analytic): {val:.6f} "
      f"(step-halving consistency {consistency:.1e})")
